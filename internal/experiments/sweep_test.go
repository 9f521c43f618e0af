package experiments

import (
	"context"
	"crypto/sha256"
	"fmt"
	"slices"
	"testing"

	"odbgc/internal/sim"
)

// TestSweepGridValid checks every grid row without running it: each line's
// policy builds at each x, each row fills the header, and series names are
// unique within a sweep.
func TestSweepGridValid(t *testing.T) {
	for name, s := range sweeps {
		if !slices.Contains(Names(), name) || s.rep.ID != name {
			t.Errorf("grid row %q (ID %q) is not an experiment name", name, s.rep.ID)
		}
		if s.scale == 0 || s.cells == nil || s.series == nil || len(s.lines) == 0 {
			t.Errorf("%s: scale, cells, series or lines missing", name)
			continue
		}
		extra := 0
		if s.conns != nil {
			extra = 1
		}
		seen := map[string]bool{}
		for _, l := range s.lines {
			for _, x := range l.xs {
				if _, err := l.policyAt(x); err != nil {
					t.Errorf("%s: %s/%s at %g: %v", name, l.policy, l.est, x, err)
				}
			}
			if len(l.xs) == 0 {
				t.Errorf("%s: line %v has no x values", name, l.labels)
			}
			if got := extra + len(l.labels) + 1 + len(s.cells(l, &sim.MultiResult{})); got != len(s.header) {
				t.Errorf("%s: line %v fills %d cells of a %d-column header", name, l.labels, got, len(s.header))
			}
			if got := len(s.series(l, &sim.MultiResult{})); got != len(l.series) {
				t.Errorf("%s: line %v names %d series for %d values", name, l.labels, len(l.series), got)
			}
			for _, sn := range l.series {
				if seen[sn] {
					t.Errorf("%s: series %q named twice", name, sn)
				}
				seen[sn] = true
			}
		}
	}
}

// sweepDigests are the SHA-256 of each sweep report's String() (table,
// series CSV and notes) at Options{Runs: 1}. Each table row is one runMany
// batch, so they also pin the order of the -events-dir batch directories.
var sweepDigests = map[string]string{
	"fig1":        "e7b656a35b25e5b6f010d48192ce93c03ea6393fb54b1bee72092ce0a5f4b5c9",
	"fig4":        "d733e4a82220fe970aadc0e61581a79b2be7eb8aab7151035dd67b8382e8e537",
	"fig5":        "f972e5b4cdfc9ba6efda52bd96631f402148bbe2c4d80c0bc27c25db355305e0",
	"fig8":        "499b6b1832f31f108ccb2987cc6e02b9999e5ef53d20fb22b508e4fec34c1183",
	"estimators":  "b9e248406282a4583460b9f79d26e77d599181179d763e3a45e55627ee33fa4d",
	"controllers": "73d1c0f533aa0f61bd089d93e99aec2dcb0a41d35073d8e966e20c4397712adb",
	"churn":       "46f736ee37d1ccdb8940fbba2c5694ab3a208d0bfae4681dd7b1b87ec0dace49",
}

func TestSweepReportsPinned(t *testing.T) {
	if len(sweepDigests) != len(sweeps) {
		t.Errorf("%d digests pinned for %d sweeps", len(sweepDigests), len(sweeps))
	}
	r := NewRunner(Options{Runs: 1})
	for _, name := range Names() {
		if _, ok := sweeps[name]; !ok {
			continue
		}
		t.Run(name, func(t *testing.T) {
			rep, err := r.RunContext(context.Background(), name)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256([]byte(rep.String()))); got != sweepDigests[name] {
				t.Errorf("%s report digest %s, want %s:\n%s", name, got, sweepDigests[name], rep)
			}
		})
	}
}
