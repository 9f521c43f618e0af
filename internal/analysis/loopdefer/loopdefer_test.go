package loopdefer_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"odbgc/internal/analysis"
	"odbgc/internal/analysis/analysistest"
	"odbgc/internal/analysis/loopdefer"
)

func TestFixtures(t *testing.T) {
	t.Run("deferpkg", func(t *testing.T) {
		analysistest.Run(t, "testdata/src/deferpkg", loopdefer.Analyzer, "example.com/deferpkg")
	})
}

// TestUnreasonedAllowRejected pins the suppression contract: an allow
// without a reason is itself a finding and suppresses nothing.
func TestUnreasonedAllowRejected(t *testing.T) {
	dir := t.TempDir()
	src := `package spin

func Spin(n int, release func()) {
	for i := 0; i < n; i++ {
		//lint:allow loopdefer
		defer release()
	}
}
`
	if err := os.WriteFile(filepath.Join(dir, "spin.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg := analysistest.LoadPackage(t, dir, "example.com/spin")
	findings, err := analysis.RunPackage(pkg, []*analysis.Analyzer{loopdefer.Analyzer})
	if err != nil {
		t.Fatal(err)
	}
	var sawMalformed, sawFinding bool
	for _, f := range findings {
		if f.Analyzer == "allow" && strings.Contains(f.Message, "no reason") {
			sawMalformed = true
		}
		if f.Analyzer == "loopdefer" {
			sawFinding = true
		}
	}
	if !sawMalformed {
		t.Errorf("unreasoned //lint:allow not reported as malformed; findings: %v", findings)
	}
	if !sawFinding {
		t.Errorf("unreasoned //lint:allow suppressed the loopdefer finding; findings: %v", findings)
	}
}
