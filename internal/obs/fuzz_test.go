package obs_test

import (
	"bytes"
	"testing"

	"odbgc/internal/core"
	"odbgc/internal/obs"
	"odbgc/internal/obs/span"
)

// FuzzEventLog: any bytes are decoded or refused by ReadAll, never a panic,
// and a log it accepts reaches a fixed point: its envelopes re-emitted
// through a fresh JSONLWriter read back, and emitting what was read back
// writes the same bytes again. The seeds hold an event log and a flight
// recorder's dump (the /debug/traces format), a request span and a GC span.
func FuzzEventLog(f *testing.F) {
	var sample bytes.Buffer
	w := obs.NewJSONLWriter(&sample)
	obs.EmitSample(w)
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	rec := span.NewRecorder(span.Config{Capacity: 4})
	req := rec.Start(obs.KindRequest, "set", obs.RequestID(1, 1), 0, 100)
	req.SetStage(obs.StageQueue, 30)
	g := rec.Start(obs.KindGC, "collect", obs.GCID(1), req.ID, 120)
	g.SetCollection(core.Collection{Estimate: 40, Target: 50, DatabaseBytes: 400})
	rec.PinID(req.ID)
	rec.Finish(g, 150, obs.OutcomeError)
	rec.Finish(req, 160, obs.OutcomeOK)
	var dump bytes.Buffer
	if _, err := rec.Dump(&dump); err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{sample.Bytes(), dump.Bytes()} {
		f.Add(seed)
		for _, line := range bytes.SplitAfter(seed, []byte("\n")) {
			f.Add(line)
		}
	}
	f.Add([]byte(`{"v":1,"seq":0,"type":"phase","phase":{"step":1.0,"label":"<é\xff>"},"extra":[1]}` + "\n\n"))
	f.Add([]byte(`{"v":1,"seq":0,"type":"run_end","run_end":{"gc_io_frac":"+Inf","garbage_frac":null}}`))
	// A checkpoint line, which logs written by older builds may hold: refused
	// as an unknown type.
	f.Add([]byte(`{"v":1,"seq":0,"type":"checkpoint","checkpoint":{"step":1,"op":"save"}}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		envs, err := obs.ReadAll(bytes.NewReader(data))
		if err != nil {
			return
		}
		first := emitAll(t, envs)
		back, err := obs.ReadAll(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("re-emitted log refused: %v\n%s", err, first)
		}
		if second := emitAll(t, back); !bytes.Equal(first, second) {
			t.Fatalf("re-emitting the log read back changed it:\n%s\n---\n%s", first, second)
		}
	})
}

// emitAll writes envs through a fresh JSONLWriter and returns its bytes.
func emitAll(t *testing.T, envs []*obs.Envelope) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := obs.NewJSONLWriter(&buf)
	for _, e := range envs {
		w.Observe(*e)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
