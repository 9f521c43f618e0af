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
// carry. A replay feeds a Live and a JSONLWriter through one obs.Multi; a
// fresh Live fed the log back, envelope by envelope, must expose the same
// metrics text and status.
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
	pol, err := core.NewSAIO(core.SAIOConfig{Frac: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(sim.Config{Policy: pol, Observer: o})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(tr); err != nil {
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
