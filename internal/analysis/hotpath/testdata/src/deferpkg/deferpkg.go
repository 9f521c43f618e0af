// Package deferpkg is the hotdefer fixture: a defer directly inside a hot
// loop is a finding; a defer scoped to a func literal inside the loop, a
// defer outside loops, and defers in cold functions are not.
package deferpkg

import (
	"sync"
	"testing"
)

var mu sync.Mutex
var count int

func BenchmarkWork(b *testing.B) {
	for i := 0; i < b.N; i++ {
		work(8)
		tail(8)
	}
}

func work(n int) {
	for i := 0; i < n; i++ {
		mu.Lock()
		defer mu.Unlock() // want "defer inside hot loop" "hot-path heap allocation in loop: func literal escapes to heap"
		count++
	}
	for i := 0; i < n; i++ {
		func() {
			mu.Lock()
			defer mu.Unlock() // scoped to the func literal: no finding
			count++
		}()
	}
	for i := 0; i < n; i++ {
		mu.Lock()
		defer cleanup() //lint:allow hotpath fixture demonstrates a reasoned suppression
	}
}

func cleanup() {
	count = 0
	mu.Unlock()
}

// tail defers outside any loop: no finding.
func tail(n int) {
	mu.Lock()
	defer mu.Unlock()
	count += n
}

// cold is unreachable from the benchmark: its loop defer is legal.
func cold(n int) {
	for i := 0; i < n; i++ {
		mu.Lock()
		defer mu.Unlock()
	}
}

var _ = cold
