// Package obsseed reproduces, in miniature, the real findings this layer
// was built to catch (and which PR7 fixed in internal/obs and
// internal/trace): an envelope struct moved to the heap on every emitted
// event in a JSONL-style writer, and a per-event dead-slice make in a
// stream decoder's Read. Neither allocation sits in a loop of its own
// function — both are loop-hot, reached from an upstream drain loop.
package obsseed

import "testing"

type envelope struct {
	Seq  uint64
	Type string
}

type writer struct {
	out  []byte
	seq  uint64
	last *envelope
}

func BenchmarkSeed(b *testing.B) {
	w := &writer{}
	r := &reader{n: 64}
	for i := 0; i < b.N; i++ {
		w.drain(64)
		r.readAll()
	}
}

func (w *writer) drain(n int) {
	for i := 0; i < n; i++ {
		w.emit("event")
	}
}

// emit mirrors JSONLWriter.emit: the envelope escapes through the
// marshal-style pointer handoff, once per event.
func (w *writer) emit(typ string) {
	env := envelope{Seq: w.seq, Type: typ} // want "hot-path heap allocation in per-iteration function"
	w.seq++
	w.last = &env
	w.out = append(w.out, byte(len(typ)))
}

type event struct{ dead []int }

type reader struct {
	n    int
	keep []event
}

func (r *reader) readAll() {
	for {
		ev, ok := r.read()
		if !ok {
			return
		}
		r.keep = append(r.keep, ev)
	}
}

// read mirrors trace.Reader.Read: a fresh dead-objects slice per event.
func (r *reader) read() (event, bool) {
	if r.n == 0 {
		return event{}, false
	}
	r.n--
	dead := make([]int, 4) // want "hot-path heap allocation in per-iteration function"
	dead[0] = r.n
	return event{dead: dead}, true
}
