// Package hotpkg is the hotalloc fixture. BenchmarkProcess seeds the hot
// region; process is hot (measured once per sample, so its own body is not
// loop territory); emit is loop-hot (called from process's loop, so its
// whole body is per-iteration work). The fixture compiles with the real
// toolchain — the escape facts the analyzer joins against are genuine
// compiler verdicts, not mocks.
package hotpkg

import (
	"fmt"
	"testing"
)

type Event struct {
	ID   int
	Note string
}

var sink *Event

func BenchmarkProcess(b *testing.B) {
	for i := 0; i < b.N; i++ {
		process(64)
	}
}

func process(n int) {
	for i := 0; i < n; i++ {
		e := &Event{ID: i} // want "hot-path heap allocation in loop"
		sink = e
		emit(i)
	}
	for i := 0; i < n; i++ {
		local := Event{ID: i} // compiler proves this stack-safe: no finding
		consume(local)
	}
	once := &Event{ID: -1} // heap, but outside any loop: no finding
	sink = once
	allowed(n)
	for i := 0; i < n; i++ {
		if err := failing(i, n); err != nil {
			errOnly(err, n) // cold call site: errOnly never becomes hot
		}
	}
}

// failing is loop-hot, but its error construction sits on the cold error
// path: the fmt.Errorf boxing and formatting allocations are not findings.
func failing(i, n int) error {
	if i >= n {
		return fmt.Errorf("overflow at %d", i) // error constructor: no finding
	}
	return nil
}

// errOnly is reachable only through the cold arm of an error check; the
// region closure must leave it cold despite the per-iteration allocation.
func errOnly(err error, n int) {
	for i := 0; i < n; i++ {
		sink = &Event{ID: i, Note: err.Error()}
	}
}

// emit is loop-hot via process's first loop: the allocation is a finding
// even though emit has no loop of its own.
func emit(id int) {
	e := &Event{ID: id} // want "hot-path heap allocation in per-iteration function"
	sink = e
}

func consume(e Event) int { return e.ID }

// allowed is hot (called by process outside its loops); its per-iteration
// allocation is deliberate and carries a reasoned suppression.
func allowed(n int) {
	for i := 0; i < n; i++ {
		sink = &Event{ID: i} //lint:allow hotpath fixture keeps a deliberate per-iteration arena handoff
	}
}

// cold is unreachable from the benchmark: its loop allocation is legal.
func cold(n int) {
	for i := 0; i < n; i++ {
		sink = &Event{ID: i}
	}
}

var _ = cold
