package detrand_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"odbgc/internal/analysis"
	"odbgc/internal/analysis/analysistest"
	"odbgc/internal/analysis/detrand"
)

func TestChains(t *testing.T) {
	analysistest.Run(t, "testdata/src/sched", detrand.Analyzer, "example.com/internal/sim/sched")
}

// TestUncoveredPackageExempt reruns the same fixture under an uncovered
// import path: chains out of non-deterministic packages are fine, so the
// fixture's want comments must NOT match — which analysistest enforces by
// failing on unmatched wants. A dedicated fixture-free check keeps this
// direct instead.
func TestUncoveredPackageExempt(t *testing.T) {
	pkg := analysistest.LoadPackage(t, "testdata/src/sched", "example.com/internal/report")
	findings, err := analysis.RunPackage(pkg, []*analysis.Analyzer{detrand.Analyzer})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		if f.Analyzer == "detrand" {
			t.Errorf("finding in uncovered package: %v", f)
		}
	}
}

// TestUnreasonedAllowRejected pins the suppression contract at the sink: an
// allow without a reason neither silences the chain nor passes itself.
func TestUnreasonedAllowRejected(t *testing.T) {
	dir := t.TempDir()
	src := `package sched

import "time"

func sink() time.Time {
	//lint:allow detrand
	return time.Now()
}

func Chain() time.Time {
	return sink()
}
`
	if err := os.WriteFile(filepath.Join(dir, "sched.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg := analysistest.LoadPackage(t, dir, "example.com/internal/sim/sched")
	findings, err := analysis.RunPackage(pkg, []*analysis.Analyzer{detrand.Analyzer})
	if err != nil {
		t.Fatal(err)
	}
	var sawMalformed, sawFinding bool
	for _, f := range findings {
		if f.Analyzer == "allow" && strings.Contains(f.Message, "no reason") {
			sawMalformed = true
		}
		if f.Analyzer == "detrand" && strings.Contains(f.Message, "via sink") {
			sawFinding = true
		}
	}
	if !sawMalformed {
		t.Errorf("unreasoned //lint:allow not reported as malformed; findings: %v", findings)
	}
	if !sawFinding {
		t.Errorf("unreasoned //lint:allow at the sink suppressed the chain finding; findings: %v", findings)
	}
}
