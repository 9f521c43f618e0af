// Package prepkg is the prealloc fixture: growing an uncapacitated slice
// inside a hot range loop over a measurable source is a finding; reserving
// capacity, ranging over an unmeasurable source, or growing outside the hot
// region is not.
package prepkg

import "testing"

var keep []int

func BenchmarkCollect(b *testing.B) {
	src := make([]int, 100)
	for i := 0; i < b.N; i++ {
		collect(src)
	}
}

func collect(src []int) {
	var out []int
	for _, v := range src {
		out = append(out, v*2) // want "append grows out per iteration of a hot range loop"
	}
	keep = out

	sized := make([]int, 0, len(src))
	for _, v := range src {
		sized = append(sized, v) // capacity reserved up front: no finding
	}
	keep = sized

	grown := []int{}
	for _, v := range src {
		grown = append(grown, v) //lint:allow hotpath fixture demonstrates a reasoned suppression
	}
	keep = grown

	var tail []int
	for len(tail) < len(src) { // not a range loop: final length not derivable here
		tail = append(tail, 1)
	}
	keep = tail

	var inner []int
	for _, v := range produce() { // call result: len unavailable without evaluation
		inner = append(inner, v)
	}
	keep = inner
}

func produce() []int { return keep }

// cold grows in a range loop but is unreachable from the benchmark.
func cold(src []int) {
	var out []int
	for _, v := range src {
		out = append(out, v)
	}
	keep = out
}

var _ = cold
