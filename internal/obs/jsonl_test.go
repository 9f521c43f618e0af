package obs

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"odbgc/internal/core"
)

// emitSample drives one of every event type through an observer.
func emitSample(o Observer) {
	o.Observe(Envelope{RunStart: &RunStart{Policy: "saga(10%,fgs-hb(0.80))", Selection: "updated-pointer", Preamble: 10}})
	o.Observe(Envelope{Phase: &PhaseChange{Step: 0, Label: "GenDB"}})
	o.Observe(Envelope{Decision: &Decision{Step: 12, Clock: core.Clock{AppIO: 9, Overwrites: 3}, DBBytes: 100, GarbageBytes: 10, Collected: true, Estimate: 11, Target: 10, NextInterval: 200}})
	o.Observe(Envelope{Collection: &Collection{Index: 1, Step: 12, Phase: "GenDB", Interval: 200, ReclaimedBytes: 512, DBBytes: 100, GarbageFrac: 0.1}})
	o.Observe(Envelope{Progress: &Progress{Step: 1000, Collections: 1, Phase: "GenDB"}})
	o.Observe(Envelope{RunEnd: &RunEnd{Events: 2000, Collections: 5, GarbageFrac: Float(math.NaN())}})
}

// EmitSample is emitSample for the package's external tests.
var EmitSample = emitSample

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewJSONLWriter(&buf)
	emitSample(w)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	events, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	wantTypes := []string{TypeRunStart, TypePhase, TypeDecision, TypeCollection,
		TypeProgress, TypeRunEnd}
	if len(events) != len(wantTypes) {
		t.Fatalf("got %d events, want %d", len(events), len(wantTypes))
	}
	for i, e := range events {
		if e.Type != wantTypes[i] {
			t.Errorf("event %d: type %q, want %q", i, e.Type, wantTypes[i])
		}
		if e.Seq != uint64(i) {
			t.Errorf("event %d: seq %d", i, e.Seq)
		}
	}
	if got := events[3].Collection.ReclaimedBytes; got != 512 {
		t.Errorf("collection reclaimed = %d, want 512", got)
	}
	if !math.IsNaN(float64(events[5].RunEnd.GarbageFrac)) {
		t.Errorf("NaN garbage frac did not round-trip: %v", events[5].RunEnd.GarbageFrac)
	}
}

func TestJSONLDeterministic(t *testing.T) {
	render := func() []byte {
		var buf bytes.Buffer
		w := NewJSONLWriter(&buf)
		emitSample(w)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Errorf("identical event streams encoded differently:\n%s\n---\n%s", a, b)
	}
}

func TestFloatEncodings(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{
		{1.5, "1.5"},
		{math.NaN(), "null"},
		{math.Inf(1), `"+Inf"`},
		{math.Inf(-1), `"-Inf"`},
	}
	for _, c := range cases {
		b, err := Float(c.v).MarshalJSON()
		if err != nil {
			t.Fatalf("marshal %v: %v", c.v, err)
		}
		if string(b) != c.want {
			t.Errorf("Float(%v) = %s, want %s", c.v, b, c.want)
		}
		var back Float
		if err := back.UnmarshalJSON(b); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		if math.IsNaN(c.v) != math.IsNaN(float64(back)) || (!math.IsNaN(c.v) && float64(back) != c.v) {
			t.Errorf("round trip %v -> %v", c.v, back)
		}
	}
}

func TestReadAllRejectsBadStreams(t *testing.T) {
	cases := []struct {
		name  string
		input string
		want  string
	}{
		{"bad version", `{"v":99,"seq":0,"type":"progress","progress":{"step":1000}}`, "schema version"},
		{"unknown type", `{"v":1,"seq":0,"type":"mystery"}`, "unknown event type"},
		// No tool writes a checkpoint event since the simulator's checkpoint
		// went; a log that holds one is refused, not read past.
		{"checkpoint event", `{"v":1,"seq":0,"type":"checkpoint","checkpoint":{"step":1,"op":"save"}}`, "unknown event type \"checkpoint\""},
		{"missing payload", `{"v":1,"seq":0,"type":"progress"}`, "no \"progress\" payload"},
		{"two payloads", `{"v":1,"seq":0,"type":"progress","progress":{"step":1000},"phase":{"step":0,"label":"x"}}`, "payloads"},
		{"gap in seq", `{"v":1,"seq":5,"type":"progress","progress":{"step":1000}}`, "sequence"},
		{"not json", `garbage`, "line 1"},
		{"span without payload", `{"v":1,"seq":0,"type":"span"}`, "no \"span\" payload"},
		{"span under another tag", `{"v":1,"seq":0,"type":"progress","span":{"id":1,"kind":"request","outcome":"ok"}}`, "no \"progress\" payload"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ReadAll(strings.NewReader(c.input))
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %v, want substring %q", err, c.want)
			}
		})
	}
}

func TestMultiFansOutAndElidesNil(t *testing.T) {
	if NewMulti() != nil {
		t.Error("NewMulti() should be nil")
	}
	if NewMulti(nil, nil) != nil {
		t.Error("NewMulti(nil, nil) should be nil")
	}
	a, b := NewLive(), NewLive()
	if NewMulti(a) != Observer(a) {
		t.Error("single observer should pass through")
	}
	m := NewMulti(a, nil, b)
	emitSample(m)
	for i, l := range []*Live{a, b} {
		if got := l.Status().Collections; got != 1 {
			t.Errorf("observer %d: collections %d, want 1", i, got)
		}
	}
}
