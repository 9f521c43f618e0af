package obs_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"odbgc/internal/core"
	"odbgc/internal/obs"
	"odbgc/internal/oo7"
	"odbgc/internal/sim"
)

// TestLiveFromLogMatchesLive: Live folds nothing the event log does not
// carry. A replay that is checkpointed and resumed mid-run feeds a Live and
// a JSONLWriter through one obs.Multi; a fresh Live fed the log back,
// envelope by envelope, must expose the same metrics text and status.
func TestLiveFromLogMatchesLive(t *testing.T) {
	tr, err := oo7.FullTrace(oo7.SmallPrime(3), 19)
	if err != nil {
		t.Fatal(err)
	}
	watched := obs.NewLive()
	var log bytes.Buffer
	w := obs.NewJSONLWriter(&log)
	o := obs.NewMulti(watched, w)
	if _, ok := o.(obs.Multi); !ok {
		t.Fatalf("NewMulti of two observers is a %T, want obs.Multi", o)
	}
	config := func() sim.Config {
		pol, err := core.NewSAIO(core.SAIOConfig{Frac: 0.10})
		if err != nil {
			t.Fatal(err)
		}
		return sim.Config{Policy: pol, Observer: o}
	}

	s, err := sim.New(config())
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	var img []byte
	for ; img == nil; i++ {
		if err := s.Step(&tr.Events[i]); err != nil {
			t.Fatal(err)
		}
		if i >= len(tr.Events)/2 {
			// Refused mid-construction; the next event may end it.
			img, _ = s.Checkpoint()
		}
	}
	if s, err = sim.Resume(config(), img); err != nil {
		t.Fatal(err)
	}
	for ; i < len(tr.Events); i++ {
		if err := s.Step(&tr.Events[i]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	envs, err := obs.ReadAll(&log)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	replayed := obs.NewLive()
	for _, e := range envs {
		seen[e.Type]++
		replayed.Observe(*e)
	}
	for _, typ := range obs.EventTypes() {
		if seen[typ] == 0 {
			t.Errorf("the run logged no %q event", typ)
		}
	}
	if seen[obs.TypeCheckpoint] != 2 || seen[obs.TypeRunStart] != 2 {
		t.Errorf("logged %d checkpoint and %d run_start events, want a save and a resume", seen[obs.TypeCheckpoint], seen[obs.TypeRunStart])
	}

	metrics := func(l *obs.Live) string {
		var b bytes.Buffer
		if err := l.Registry().WriteText(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if got, want := metrics(replayed), metrics(watched); got != want {
		t.Errorf("metrics folded from the log differ from the watching Live's:\n%s\n---\n%s", got, want)
	}
	// Status holds obs.Floats, which may be NaN; their JSON encoding is total.
	status := func(l *obs.Live) string {
		b, err := json.Marshal(l.Status())
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if got, want := status(replayed), status(watched); got != want {
		t.Errorf("status folded from the log differs from the watching Live's:\n%s\n---\n%s", got, want)
	}
}
