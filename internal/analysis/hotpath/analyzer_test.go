package hotpath

import (
	"path/filepath"
	"strings"
	"testing"

	"odbgc/internal/analysis"
	"odbgc/internal/analysis/analysistest"
)

// TestFixtures runs the analyzer over one fixture per message (hotpkg: heap
// allocations, boxpkg: boxing, deferpkg: defers, prepkg: append-growth) and
// over obsseed, the miniature reproduction of the real internal/obs
// (per-event envelope escape) and internal/trace (per-event dead-slice make)
// findings the allocation check was written against.
func TestFixtures(t *testing.T) {
	for _, name := range []string{"hotpkg", "obsseed", "boxpkg", "deferpkg", "prepkg"} {
		t.Run(name, func(t *testing.T) {
			analysistest.Run(t, filepath.Join("testdata", "src", name), Analyzer, "example.com/"+name)
		})
	}
}

// TestUnreasonedAllowRejected drives the fixture directly: an unreasoned
// //lint:allow hotpath must not suppress — the driver reports both the
// malformed allow and the underlying allocation.
func TestUnreasonedAllowRejected(t *testing.T) {
	pkg := analysistest.LoadPackage(t, filepath.Join("testdata", "src", "unreasoned"), "example.com/unreasoned")
	findings, err := analysis.RunPackage(pkg, []*analysis.Analyzer{Analyzer})
	if err != nil {
		t.Fatal(err)
	}
	var gotAllow, gotAlloc bool
	for _, f := range findings {
		switch f.Analyzer {
		case "allow":
			if strings.Contains(f.Message, "has no reason") {
				gotAllow = true
			}
		case "hotpath":
			gotAlloc = true
		}
	}
	if !gotAllow {
		t.Errorf("missing malformed-allow finding; got %v", findings)
	}
	if !gotAlloc {
		t.Errorf("unreasoned allow suppressed the hotpath finding; got %v", findings)
	}
}
