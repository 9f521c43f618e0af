package sim

import (
	"bytes"
	"encoding/gob"
	"errors"
	"testing"

	"odbgc/internal/core"
	"odbgc/internal/gc"
	"odbgc/internal/simerr"
	"odbgc/internal/trace"
)

// encodeResult canonicalizes a Result for bit-identical comparison (gob
// encodes NaN deterministically, unlike reflect.DeepEqual which rejects it).
func encodeResult(t *testing.T, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// runSplit replays tr twice with identically configured simulators: once
// straight through, once checkpointing near the midpoint (serializing the
// checkpoint through its wire format) and resuming into a fresh simulator.
// Returns the canonical encodings of both results.
func runSplit(t *testing.T, tr *trace.Trace, mkConfig func() Config) (full, resumed []byte) {
	t.Helper()

	s1, err := New(mkConfig())
	if err != nil {
		t.Fatal(err)
	}
	resA, err := s1.Run(tr)
	if err != nil {
		t.Fatal(err)
	}

	s2, err := New(mkConfig())
	if err != nil {
		t.Fatal(err)
	}
	half := len(tr.Events) / 2
	i := 0
	for ; i < len(tr.Events) && (i < half || s2.loop.midBuild); i++ {
		if err := s2.Step(&tr.Events[i]); err != nil {
			t.Fatal(err)
		}
	}
	cp, err := s2.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, cp); err != nil {
		t.Fatal(err)
	}
	cp2, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}

	s3, err := Resume(mkConfig(), cp2)
	if err != nil {
		t.Fatal(err)
	}
	for ; i < len(tr.Events); i++ {
		if err := s3.Step(&tr.Events[i]); err != nil {
			t.Fatal(err)
		}
	}
	resB, err := s3.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return encodeResult(t, resA), encodeResult(t, resB)
}

func TestCheckpointResumeBitIdentical(t *testing.T) {
	tr := smallTrace(t, 3, 11)
	mkConfig := func() Config {
		est, err := core.NewFGSHB(0.8)
		if err != nil {
			t.Fatal(err)
		}
		pol, err := core.NewSAGA(core.SAGAConfig{Frac: 0.10}, est)
		if err != nil {
			t.Fatal(err)
		}
		return Config{Policy: pol}
	}
	full, resumed := runSplit(t, tr, mkConfig)
	if !bytes.Equal(full, resumed) {
		t.Fatal("resumed run's summary differs from the uninterrupted run")
	}
}

func TestCheckpointRejectsMidConstruction(t *testing.T) {
	tr := smallTrace(t, 3, 13)
	pol, err := core.NewFixedRate(500)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Events {
		if err := s.Step(&tr.Events[i]); err != nil {
			t.Fatal(err)
		}
		if s.loop.midBuild {
			if _, err := s.Checkpoint(); err == nil {
				t.Fatal("checkpoint accepted mid-construction")
			}
			return
		}
	}
	t.Fatal("trace had no mid-construction point")
}

// TestResumeRejectsMismatchedConfig: resuming under a different policy or
// selection than the checkpointed run must fail loudly, not silently run the
// wrong configuration.
func TestResumeRejectsMismatchedConfig(t *testing.T) {
	tr := smallTrace(t, 3, 15)
	mkSAGA := func() core.RatePolicy {
		pol, err := core.NewSAGA(core.SAGAConfig{Frac: 0.10}, core.OracleEstimator{})
		if err != nil {
			t.Fatal(err)
		}
		return pol
	}
	s, err := New(Config{Policy: mkSAGA()})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(tr.Events)/2 || s.loop.midBuild; i++ {
		if err := s.Step(&tr.Events[i]); err != nil {
			t.Fatal(err)
		}
	}
	cp, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := core.NewFixedRate(200)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(Config{Policy: fixed}, cp); err == nil {
		t.Fatal("resume accepted a different policy than the checkpointed run")
	}
	sel, err := gc.NewSelectionPolicy("round-robin", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(Config{Policy: mkSAGA(), Selection: sel}, cp); err == nil {
		t.Fatal("resume accepted a different selection policy than the checkpointed run")
	}
	if _, err := Resume(Config{Policy: mkSAGA()}, cp); err != nil {
		t.Fatalf("matching config rejected: %v", err)
	}

	// A heap image that fails validation is a corrupt checkpoint, whichever
	// field took the damage; an OID flipped into the far distance must not
	// size a table on the way to that verdict.
	for name, damage := range map[string]func(*gc.HeapSnapshot){
		"object OID":    func(h *gc.HeapSnapshot) { h.Store.Objects[len(h.Store.Objects)-1].OID ^= 1 << 57 },
		"placement OID": func(h *gc.HeapSnapshot) { h.Disk.Placements[0].OID ^= 1 << 57 },
		"remset entry":  func(h *gc.HeapSnapshot) { h.Remset = h.Remset[1:] },
		"used bytes":    func(h *gc.HeapSnapshot) { h.Disk.Partitions[0].Used++ },
	} {
		bad, err := gobClone(cp)
		if err != nil {
			t.Fatal(err)
		}
		damage(bad.Heap)
		_, err = Resume(Config{Policy: mkSAGA()}, bad)
		if !errors.Is(err, simerr.ErrCorruptCheckpoint) {
			t.Errorf("checkpoint with damaged %s: Resume = %v, want a corrupt-checkpoint error", name, err)
		}
	}
}

// TestResumeBitIdenticalEveryComponent: a checkpoint carries the state of
// every rate policy, estimator and selection policy, so a run checkpointed
// at its midpoint and resumed collects exactly where the uninterrupted run
// does. It covers every core.NewPolicy name over FGS/HB, SAGA over every
// estimator, and fixed(50) under every selection policy.
func TestResumeBitIdenticalEveryComponent(t *testing.T) {
	tr := smallTrace(t, 3, 11)
	type combo struct{ policy, estimator, selection string }
	var combos []combo
	for _, p := range []string{"saio", "saga", "pi", "coupled", "fixed", "never"} {
		combos = append(combos, combo{p, "fgs-hb", "updated-pointer"})
	}
	for _, e := range []string{"oracle", "cgs-cb", "fgs-window", "fgs-pp", "fallback"} {
		combos = append(combos, combo{"saga", e, "updated-pointer"})
	}
	for _, s := range []string{"random", "round-robin", "oracle-max-garbage", "hybrid"} {
		combos = append(combos, combo{"fixed", "fgs-hb", s})
	}
	collections := func(t *testing.T, encoded []byte) []byte {
		t.Helper()
		var res Result
		if err := gob.NewDecoder(bytes.NewReader(encoded)).Decode(&res); err != nil {
			t.Fatal(err)
		}
		if len(res.Collections) == 0 && res.PolicyName != "never" {
			t.Fatalf("%s under %s collected nothing", res.PolicyName, res.SelectionName)
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(res.Collections); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, c := range combos {
		t.Run(c.policy+"/"+c.estimator+"/"+c.selection, func(t *testing.T) {
			mkConfig := func() Config {
				pol, err := core.NewPolicy(c.policy, core.PolicyParams{Frac: 0.10, Interval: 50,
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
			full, resumed := runSplit(t, tr, mkConfig)
			if !bytes.Equal(collections(t, full), collections(t, resumed)) {
				t.Fatal("the resumed run's collections differ from the uninterrupted run's")
			}
		})
	}
}
