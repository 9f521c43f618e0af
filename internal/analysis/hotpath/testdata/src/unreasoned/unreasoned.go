// Package unreasoned pins the suppression discipline: a bare
// //lint:allow hotpath with no reason does not suppress — the driver
// reports both the malformed allow and the underlying finding. (This
// fixture is driven by a direct RunPackage test rather than want comments,
// because the unreasoned allow occupies the comment slot of its line.)
package unreasoned

import "testing"

type box struct{ v int }

var sink *box

func BenchmarkSpin(b *testing.B) {
	for i := 0; i < b.N; i++ {
		spin(4)
	}
}

func spin(n int) {
	for i := 0; i < n; i++ {
		//lint:allow hotpath
		sink = &box{v: i}
	}
}
