// Package deferpkg is the loopdefer fixture: a defer directly inside a for or
// range body is a finding, wherever the function is called from; a defer
// scoped to a func literal inside the loop and a defer outside loops are not.
package deferpkg

import "sync"

var mu sync.Mutex
var count int

func work(n int, keys []int) {
	for i := 0; i < n; i++ {
		mu.Lock()
		defer mu.Unlock() // want "defer inside a loop"
		count++
	}
	for range keys {
		if count > 0 {
			defer cleanup() // want "defer inside a loop"
		}
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
		defer cleanup() //lint:allow loopdefer fixture demonstrates a reasoned suppression
	}
}

// nested: a loop inside a func literal inside a loop is a loop of its own.
func nested(n int) {
	for i := 0; i < n; i++ {
		go func() {
			for j := 0; j < n; j++ {
				defer cleanup() // want "defer inside a loop"
			}
		}()
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

var _, _ = nested, tail
