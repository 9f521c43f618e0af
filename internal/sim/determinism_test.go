package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"odbgc/internal/core"
	"odbgc/internal/fault"
	"odbgc/internal/metrics"
	"odbgc/internal/obs"
	"odbgc/internal/obs/span"
	"odbgc/internal/trace"
)

// runForArtifacts steps tr through a fresh simulator, serializing a
// checkpoint at the first collection-safe point past the midpoint and
// rendering the per-collection series as CSV at the end. These are the two
// artifacts users persist (checkpoint files, experiment CSVs), so both must
// be byte-deterministic.
func runForArtifacts(t *testing.T, tr *trace.Trace, mkConfig func() Config) (ckpt []byte, csv string) {
	t.Helper()
	s, err := New(mkConfig())
	if err != nil {
		t.Fatal(err)
	}
	half := len(tr.Events) / 2
	i := 0
	for ; i < len(tr.Events) && (i < half || !s.collectSafe); i++ {
		if err := s.Step(&tr.Events[i]); err != nil {
			t.Fatal(err)
		}
	}
	cp, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, cp); err != nil {
		t.Fatal(err)
	}
	for ; i < len(tr.Events); i++ {
		if err := s.Step(&tr.Events[i]); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	garb := &metrics.Series{Name: "garbage_frac"}
	recl := &metrics.Series{Name: "reclaimed_bytes"}
	for _, c := range res.Collections {
		garb.Add(float64(c.Index), c.ActualGarbageFrac)
		recl.Add(float64(c.Index), float64(c.ReclaimedBytes))
	}
	return buf.Bytes(), metrics.CSV("collection", garb, recl)
}

// TestRepeatedRunByteIdentical runs the identical trace through identically
// configured simulators twice and asserts the serialized checkpoint and the
// rendered CSV are byte-for-byte equal. Any map-iteration-order dependence
// or unseeded randomness anywhere in the pipeline (heap, policy, metrics,
// snapshot encoders) shows up here as a flaky diff — this is the runtime
// counterpart of the maporder and detrand analyzers.
func TestRepeatedRunByteIdentical(t *testing.T) {
	tr := smallTrace(t, 3, 19)
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
	ckptA, csvA := runForArtifacts(t, tr, mkConfig)
	ckptB, csvB := runForArtifacts(t, tr, mkConfig)

	if !bytes.Equal(ckptA, ckptB) {
		t.Error("identical runs serialized different checkpoint bytes")
	}
	if csvA != csvB {
		t.Errorf("identical runs rendered different CSVs:\n--- A ---\n%s--- B ---\n%s", csvA, csvB)
	}
	// The artifacts must be substantive, not trivially equal empties.
	if len(ckptA) == 0 {
		t.Error("empty checkpoint")
	}
	if lines := strings.Count(csvA, "\n"); lines < 2 {
		t.Errorf("CSV has %d lines; want a header plus at least one collection row", lines)
	}
}

// TestObserverPathDeterministic covers the observability layer's two
// determinism promises: identical-seed runs with events enabled write
// byte-identical JSONL logs, and attaching an observer leaves the simulation's
// persisted artifacts (checkpoint bytes, CSV) byte-identical to a run with a
// nil observer — the hooks are pure taps, never inputs.
func TestObserverPathDeterministic(t *testing.T) {
	tr := smallTrace(t, 3, 19)
	mkConfig := func() Config {
		est, err := core.NewFGSHB(0.8)
		if err != nil {
			t.Fatal(err)
		}
		pol, err := core.NewSAGA(core.SAGAConfig{Frac: 0.10}, est)
		if err != nil {
			t.Fatal(err)
		}
		return Config{Policy: pol, ProgressEvery: 50}
	}
	observed := func() (ckpt []byte, csv string, events []byte) {
		var buf bytes.Buffer
		w := obs.NewJSONLWriter(&buf)
		ckpt, csv = runForArtifacts(t, tr, func() Config {
			cfg := mkConfig()
			cfg.Observer = w
			return cfg
		})
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return ckpt, csv, buf.Bytes()
	}

	ckptA, csvA, eventsA := observed()
	ckptB, csvB, eventsB := observed()
	if !bytes.Equal(eventsA, eventsB) {
		t.Error("identical observed runs wrote different event logs")
	}
	if len(eventsA) == 0 {
		t.Fatal("observed run wrote no events")
	}
	envs, err := obs.ReadAll(bytes.NewReader(eventsA))
	if err != nil {
		t.Fatalf("event log does not validate: %v", err)
	}
	seen := map[string]bool{}
	for _, e := range envs {
		seen[e.Type] = true
	}
	for _, want := range []string{obs.TypeRunStart, obs.TypePhase, obs.TypeDecision,
		obs.TypeCollection, obs.TypeCheckpoint, obs.TypeProgress} {
		if !seen[want] {
			t.Errorf("event log has no %q event", want)
		}
	}

	ckptPlain, csvPlain := runForArtifacts(t, tr, mkConfig)
	if !bytes.Equal(ckptA, ckptPlain) || !bytes.Equal(ckptA, ckptB) {
		t.Error("observer changed the serialized checkpoint bytes")
	}
	if csvA != csvPlain || csvA != csvB {
		t.Error("observer changed the rendered CSV")
	}
}

// TestSpanPathDeterministic makes the same two promises for the span tap: a
// recorder-enabled run dumps byte-identical span JSONL across identical-seed
// runs, and attaching a recorder leaves the checkpoint and CSV byte-identical
// to the bare run — the flight recorder observes the collector, it never
// feeds back into it. This is also the proof behind the "free when disabled"
// claim: the bare run exercises the nil-recorder fast path at every
// collection.
func TestSpanPathDeterministic(t *testing.T) {
	tr := smallTrace(t, 3, 19)
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
	traced := func() (ckpt []byte, csv string, dump []byte) {
		rec := span.NewRecorder(span.Config{Capacity: 4096})
		ckpt, csv = runForArtifacts(t, tr, func() Config {
			cfg := mkConfig()
			cfg.Spans = rec
			return cfg
		})
		if st := rec.Stats(); st.Started != st.Finished {
			t.Fatalf("%d spans started, %d finished", st.Started, st.Finished)
		}
		var buf bytes.Buffer
		if _, err := rec.Dump(&buf); err != nil {
			t.Fatal(err)
		}
		return ckpt, csv, buf.Bytes()
	}

	ckptA, csvA, dumpA := traced()
	ckptB, csvB, dumpB := traced()
	if !bytes.Equal(dumpA, dumpB) {
		t.Error("identical traced runs dumped different span bytes")
	}
	spans, err := span.ReadAll(bytes.NewReader(dumpA))
	if err != nil {
		t.Fatalf("span dump does not validate: %v", err)
	}
	if len(spans) == 0 {
		t.Fatal("traced run recorded no spans")
	}
	if dangling, err := span.CheckAll(spans); err != nil || dangling != 0 {
		t.Fatalf("CheckAll = (%d, %v), want (0, nil)", dangling, err)
	}
	for _, sp := range spans {
		if sp.Kind != span.KindGC {
			t.Fatalf("sim emitted a non-GC span: %+v", sp)
		}
		if sp.Stages[span.StageService] <= 0 || sp.ReclaimedObjects == 0 {
			t.Fatalf("collection span missing pause/reclaim data: %+v", sp)
		}
	}

	ckptPlain, csvPlain := runForArtifacts(t, tr, mkConfig)
	if !bytes.Equal(ckptA, ckptPlain) || !bytes.Equal(ckptA, ckptB) {
		t.Error("span recorder changed the serialized checkpoint bytes")
	}
	if csvA != csvPlain || csvA != csvB {
		t.Error("span recorder changed the rendered CSV")
	}
}

// goldenArtifacts are the SHA-256 digests of the artifacts a seed-1 OO7
// Small' connectivity-3 replay persists: the mid-run checkpoint, the
// per-collection CSV and the observer's JSONL event log.
type goldenArtifacts struct{ ckpt, csv, events string }

// TestGoldenArtifactDigests pins those digests for the two replay workloads of
// the repository benchmark (SAIO 10 % and fixed-rate 50). They were recorded
// before the object tables replaced the hash maps under gc.Heap,
// storage.Manager and objstore.Store: a data-layout change must reproduce
// every byte, so a digest may only change together with a deliberate change
// to the simulated behaviour or to a snapshot struct.
//
// The third case is SAIO 10 % under per-operation and burst storage faults.
// Its checkpoint embeds the injector's state (generator, burst remainder, ops
// inspected, faults, bursts) and its event log the fault events, so it pins
// which operations ask the injector, in what order, and how often each is
// asked again. It was recorded while gc.Heap wrapped each storage call in the
// retry loop that now sits around the injector itself.
//
// The checkpoint is digested as the JSON of what its gob bytes decode to,
// without the nested policy and selection streams: gob numbers types in the
// order a process first encodes them, so the raw bytes depend on which tests
// ran earlier (TestRepeatedRunByteIdentical covers them within one process).
func TestGoldenArtifactDigests(t *testing.T) {
	tr := smallTrace(t, 3, 1)
	for _, tc := range []struct {
		name   string
		policy func() (core.RatePolicy, error)
		faults fault.Profile
		want   goldenArtifacts
	}{
		{"saio-10", func() (core.RatePolicy, error) { return core.NewSAIO(core.SAIOConfig{Frac: 0.10}) }, fault.Profile{}, goldenArtifacts{
			ckpt:   "6cef78ffaa4e158e9f712c9eb9049c3e97dced29460cd19690b98fde909b8393",
			csv:    "c58d3453b1f1344f7b90754f8980107ff263df90670abedef968f19e1133524f",
			events: "a3c7e34d334a75cf9bf180697fce80089d180c92ef6da0ec33ef1232233fe153",
		}},
		{"fixed-50", func() (core.RatePolicy, error) { return core.NewFixedRate(50) }, fault.Profile{}, goldenArtifacts{
			ckpt:   "f64961d4dccb70db50465ae2815cd9fb732d030908af30318c0e0a0320a3ef47",
			csv:    "3caee188ee996aa39da5c765c70094d8ec8e56bad9f210545636d5cca59ca827",
			events: "0b8f5f27dedb0df29a10152914d1aa1ae4ab86dd7f6f6ce1e8ccdc06c1e65af5",
		}},
		{"saio-10-faulted", func() (core.RatePolicy, error) { return core.NewSAIO(core.SAIOConfig{Frac: 0.10}) },
			fault.Profile{ReadErrProb: 0.01, WriteErrProb: 0.02, BurstProb: 0.001, BurstLen: 3}, goldenArtifacts{
				ckpt:   "0cb90f7c4aee3f7b9d5aa4aa76fa78b0b6c11c99cc1efda73171b39782e4f0f9",
				csv:    "c58d3453b1f1344f7b90754f8980107ff263df90670abedef968f19e1133524f",
				events: "7e1ff43f2eb2facecae0eab64788bcd9a5db324d46f6c03e224429825a59db6d",
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var events bytes.Buffer
			w := obs.NewJSONLWriter(&events)
			ckpt, csv := runForArtifacts(t, tr, func() Config {
				pol, err := tc.policy()
				if err != nil {
					t.Fatal(err)
				}
				return Config{Policy: pol, Observer: w, FaultProfile: tc.faults, FaultSeed: 7}
			})
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			cp, err := ReadCheckpoint(bytes.NewReader(ckpt))
			if err != nil {
				t.Fatal(err)
			}
			cp.Policy, cp.Selection = nil, nil
			canonical, err := json.Marshal(cp)
			if err != nil {
				t.Fatal(err)
			}
			digest := func(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b)) }
			got := goldenArtifacts{ckpt: digest(canonical), csv: digest([]byte(csv)), events: digest(events.Bytes())}
			if got != tc.want {
				t.Errorf("artifact digests changed:\n got %+v\nwant %+v", got, tc.want)
			}
		})
	}
}
