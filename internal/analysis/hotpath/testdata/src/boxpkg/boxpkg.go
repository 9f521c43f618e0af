// Package boxpkg is the hotbox fixture: interface conversions inside the
// hot loop allocate (confirmed by the compiler) and are findings; the
// concrete-typed call and the conversions outside the hot region are not.
package boxpkg

import "testing"

type metric struct {
	v int64
	s string
}

var out []any
var sum int64
var anySink any

func BenchmarkDispatch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dispatch(64)
	}
}

func dispatch(n int) {
	for i := 0; i < n; i++ {
		record(metric{v: int64(i)}) // want "interface conversion allocates on hot path" "hot-path heap allocation in loop"
	}
	for i := 0; i < n; i++ {
		keep(metric{v: int64(i)}) // concrete parameter: no boxing, no finding
	}
	for i := 0; i < n; i++ {
		anySink = metric{v: int64(i)} // want "interface conversion allocates on hot path" "hot-path heap allocation in loop"
	}
	for i := 0; i < n; i++ {
		record(metric{v: 7}) //lint:allow hotpath fixture demonstrates a reasoned suppression
	}
	record(metric{v: int64(n)}) // outside any loop: no finding
}

func record(v any) { out = append(out, v) }

func keep(m metric) { sum += m.v }

// cold boxes in a loop but is unreachable from the benchmark: no finding.
func cold(n int) {
	for i := 0; i < n; i++ {
		record(metric{v: int64(i)})
	}
}

var _ = cold
