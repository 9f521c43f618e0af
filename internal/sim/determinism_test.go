package sim

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"odbgc/internal/core"
	"odbgc/internal/metrics"
	"odbgc/internal/obs"
	"odbgc/internal/storage/disk"
	"odbgc/internal/trace"
)

// runForArtifacts steps tr through a fresh simulator, writing the state
// image of its heap (disk.WriteImage: the objects, the storage manager's
// state and the heap's counters) at the first collection-safe point past the
// midpoint and rendering the per-collection series as CSV at the end. Both
// must be byte-deterministic: the image is what a checkpoint's state chain
// holds, and the CSV is what the experiments persist.
func runForArtifacts(t *testing.T, tr *trace.Trace, mkConfig func() Config) (ckpt []byte, csv string) {
	t.Helper()
	s, err := New(mkConfig())
	if err != nil {
		t.Fatal(err)
	}
	half := len(tr.Events) / 2
	i := 0
	for ; i < len(tr.Events) && (i < half || s.loop.midBuild); i++ {
		if err := s.Step(&tr.Events[i]); err != nil {
			t.Fatal(err)
		}
	}
	ckpt, err = disk.WriteImage(s.heap.Store(), s.disk, s.heap.AppendState(nil))
	if err != nil {
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
		garb.Add(float64(c.Index), c.GarbageFrac())
		recl.Add(float64(c.Index), float64(c.Result.ReclaimedBytes))
	}
	return ckpt, metrics.CSV("collection", garb, recl)
}

// TestRepeatedRunByteIdentical runs the identical trace through identically
// configured simulators twice and asserts the state image and the rendered
// CSV are byte-for-byte equal. Any map-iteration-order dependence
// or unseeded randomness anywhere in the pipeline (heap, policy, metrics,
// the state image's encoder) shows up here as a flaky diff — this is the runtime
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
		t.Error("identical runs wrote different state images")
	}
	if csvA != csvB {
		t.Errorf("identical runs rendered different CSVs:\n--- A ---\n%s--- B ---\n%s", csvA, csvB)
	}
	// The artifacts must be substantive, not trivially equal empties.
	if len(ckptA) == 0 {
		t.Error("empty state image")
	}
	if lines := strings.Count(csvA, "\n"); lines < 2 {
		t.Errorf("CSV has %d lines; want a header plus at least one collection row", lines)
	}
}

// TestObserverPathDeterministic covers the observability layer's two
// determinism promises: identical-seed runs with events enabled write
// byte-identical JSONL logs, and attaching an observer leaves the simulation's
// artifacts (state image, CSV) byte-identical to a run with a
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
		return Config{Policy: pol}
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
		obs.TypeCollection, obs.TypeProgress} {
		if !seen[want] {
			t.Errorf("event log has no %q event", want)
		}
	}

	ckptPlain, csvPlain := runForArtifacts(t, tr, mkConfig)
	if !bytes.Equal(ckptA, ckptPlain) || !bytes.Equal(ckptA, ckptB) {
		t.Error("observer changed the state image")
	}
	if csvA != csvPlain || csvA != csvB {
		t.Error("observer changed the rendered CSV")
	}
}

// goldenArtifacts are the SHA-256 digests of the artifacts a seed-1 OO7
// Small' connectivity-3 replay writes: the mid-run state image, the
// per-collection CSV and the observer's JSONL event log.
type goldenArtifacts struct{ ckpt, csv, events string }

// TestGoldenArtifactDigests pins those digests for the two replay workloads of
// the repository benchmark (SAIO 10 % and fixed-rate 50). The csv digests
// were recorded before the object tables replaced the hash maps under
// gc.Heap, storage.Manager and objstore.Store: a data-layout change must
// reproduce every byte, so a digest may only change together with a
// deliberate change to the simulated behaviour, to the event log or to the
// state image.
func TestGoldenArtifactDigests(t *testing.T) {
	tr := smallTrace(t, 3, 1)
	for _, tc := range []struct {
		name   string
		policy func() (core.RatePolicy, error)
		want   goldenArtifacts
	}{
		{"saio-10", func() (core.RatePolicy, error) { return core.NewSAIO(core.SAIOConfig{Frac: 0.10}) }, goldenArtifacts{
			ckpt:   "7bd9cc7e47ed378851d45c4eb0a9155e4f39063e437b64ad9bbd0c62e76cdd05",
			csv:    "c58d3453b1f1344f7b90754f8980107ff263df90670abedef968f19e1133524f",
			events: "702cbc0c75c838488499f9cc87214611ec34f50c615fd4bd6b826c619c90bd36",
		}},
		{"fixed-50", func() (core.RatePolicy, error) { return core.NewFixedRate(50) }, goldenArtifacts{
			ckpt:   "9c48b7dd2a1caf217ff98784cee5abca1afaed2af921bae4864b6235c475d1a2",
			csv:    "3caee188ee996aa39da5c765c70094d8ec8e56bad9f210545636d5cca59ca827",
			events: "1618d7165b6e1ea06d1bfbb9ac0131a4b2c80ef8e1ad6bea7a1f433fad4b959b",
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
				return Config{Policy: pol, Observer: w}
			})
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			digest := func(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b)) }
			got := goldenArtifacts{ckpt: digest(ckpt), csv: digest([]byte(csv)), events: digest(events.Bytes())}
			if got != tc.want {
				t.Errorf("artifact digests changed:\n got %+v\nwant %+v", got, tc.want)
			}
		})
	}
}
