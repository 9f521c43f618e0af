package sim

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"testing"

	"odbgc/internal/core"
	"odbgc/internal/gc"
	"odbgc/internal/trace"
)

// TestResumeBitIdenticalEveryComponent: a snapshot (core.Snapshotter)
// carries the whole state of every rate policy, estimator and selection
// policy, so a run whose policy and selection are snapshotted at its
// midpoint, restored into freshly built components and swapped into the
// running loop collects exactly where the uninterrupted run does. It covers
// every core.NewPolicy name over FGS/HB, SAIO with a c_hist window too (its
// history and last application clock are read only then), SAGA over every
// estimator, and fixed(50) under every selection policy.
func TestResumeBitIdenticalEveryComponent(t *testing.T) {
	tr := smallTrace(t, 3, 11)
	type combo struct {
		policy, estimator, selection string
		hist                         int // SAIO's c_hist
	}
	var combos []combo
	for _, p := range []string{"saio", "saga", "pi", "coupled", "fixed", "never"} {
		combos = append(combos, combo{p, "fgs-hb", "updated-pointer", 0})
	}
	combos = append(combos, combo{"saio", "fgs-hb", "updated-pointer", 3})
	for _, e := range []string{"oracle", "cgs-cb", "fgs-window", "fgs-pp", "fallback"} {
		combos = append(combos, combo{"saga", e, "updated-pointer", 0})
	}
	for _, s := range []string{"random", "round-robin", "oracle-max-garbage", "hybrid"} {
		combos = append(combos, combo{"fixed", "fgs-hb", s, 0})
	}
	for _, c := range combos {
		policy := c.policy
		if c.hist > 0 {
			policy = fmt.Sprintf("%s(hist=%d)", c.policy, c.hist)
		}
		t.Run(policy+"/"+c.estimator+"/"+c.selection, func(t *testing.T) {
			mkConfig := func() Config {
				pol, err := core.NewPolicy(c.policy, core.PolicyParams{Frac: 0.10, Interval: 50, Hist: c.hist,
					Estimator: func() (core.Estimator, error) { return core.NewEstimator(c.estimator, 0) }})
				if err != nil {
					t.Fatal(err)
				}
				sel, err := gc.NewSelectionPolicy(c.selection, 7)
				if err != nil {
					t.Fatal(err)
				}
				return Config{Policy: pol, Selection: sel}
			}
			full, n := collections(t, tr, mkConfig, false)
			if n == 0 && c.policy != "never" {
				t.Fatal("the run collected nothing")
			}
			if swapped, _ := collections(t, tr, mkConfig, true); !bytes.Equal(full, swapped) {
				t.Fatal("the run with restored components collects differently from the uninterrupted run")
			}
		})
	}
}

// collections replays tr through a simulator built from mkConfig and returns
// its collection records, gob-encoded, and their number. With swap, at the
// first collect-safe point past the midpoint, the policy and the selection
// are snapshotted, restored into components mkConfig builds afresh, and
// those replace them in the running loop.
func collections(t *testing.T, tr *trace.Trace, mkConfig func() Config, swap bool) ([]byte, int) {
	t.Helper()
	s, err := New(mkConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Events {
		if swap && i >= len(tr.Events)/2 && !s.loop.midBuild {
			swap = false
			fresh := mkConfig()
			for _, c := range [][2]any{{s.cfg.Policy, fresh.Policy}, {s.cfg.Selection, fresh.Selection}} {
				state, err := core.SnapshotComponent(c[0])
				if err != nil {
					t.Fatal(err)
				}
				if err := core.RestoreComponent(c[1], state); err != nil {
					t.Fatal(err)
				}
			}
			s.cfg.Policy, s.loop.Cycle.Policy = fresh.Policy, fresh.Policy
			s.cfg.Selection, s.loop.Cycle.Selection = fresh.Selection, fresh.Selection
		}
		if err := s.Step(&tr.Events[i]); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(res.Collections); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), len(res.Collections)
}
