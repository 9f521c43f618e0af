package storage

import (
	"fmt"
	"math/rand"
	"testing"

	"odbgc/internal/objstore"
)

// BenchmarkAllocateTouch times placement and page access together, in the
// mix a replay drives them: each iteration places one new 133-byte object
// (the OO7 mean) and touches three placed earlier, one of them dirtying. The
// manager starts over every 30 000 objects so the run's length does not set
// the database's size.
func BenchmarkAllocateTouch(b *testing.B) {
	const n = 30_000
	var m *Manager
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % n
		if k == 0 {
			var err error
			if m, err = NewManager(DefaultConfig()); err != nil {
				b.Fatal(err)
			}
		}
		oid := objstore.OID(k + 1)
		if _, err := m.Allocate(oid, 133); err != nil {
			b.Fatal(err)
		}
		for j, back := range [3]int{0, 40, 900} {
			if back > k {
				back = k
			}
			if err := m.Touch(oid-objstore.OID(back), j == 2); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// pinCaseNames are the three paths through BufferPool.Pin: a hit on the page
// already in front; a hit on the least recently used page (index probe,
// unlink, relink); and a miss on a full pool whose victim is dirty (victim
// scan, index delete, frame reuse, index insert).
var pinCaseNames = [...]string{"front", "deep", "miss-evict-dirty"}

// pinCase returns a loop body that takes the named path on every call, on a
// full pool of its own that is already in the body's steady cycle.
func pinCase(tb testing.TB, capacity int, name string) func(i int) {
	pool, err := NewBufferPool(capacity)
	if err != nil {
		tb.Fatal(err)
	}
	pin := func(i int) { pool.Pin(PageID{Part: PartitionID(i / 12), Index: i % 12}, true, true) }
	var body func(int)
	switch name {
	case "front":
		body = func(int) { pin(capacity - 1) }
	case "deep":
		// The pool holds capacity consecutive pages; the oldest is always
		// the one after the newest, so cycling through them pins the tail.
		body = func(i int) { pin(i % capacity) }
	default:
		// One page more than fits, cycled: every pin misses and evicts the
		// oldest page, which the pin that brought it in left dirty.
		body = func(i int) { pin(i % (capacity + 1)) }
	}
	// A whole number of either cycle, so the caller's i = 0 continues it.
	for i := 0; i < capacity*(capacity+1); i++ {
		body(i)
	}
	return body
}

// BenchmarkBufferPoolPin times the pool alone, at the simulated manager's
// capacity and the disk pager's.
func BenchmarkBufferPoolPin(b *testing.B) {
	for _, capacity := range []int{12, 64} {
		for _, name := range pinCaseNames {
			b.Run(fmt.Sprintf("%s/cap=%d", name, capacity), func(b *testing.B) {
				body := pinCase(b, capacity, name)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					body(i)
				}
			})
		}
	}
}

// TestBufferPoolPinAllocatesNothing pins the pool's contract: everything is
// allocated by NewBufferPool, on every path through Pin.
func TestBufferPoolPinAllocatesNothing(t *testing.T) {
	for _, capacity := range []int{12, 64} {
		for _, name := range pinCaseNames {
			body, i := pinCase(t, capacity, name), 0
			if n := testing.AllocsPerRun(500, func() { body(i); i++ }); n != 0 {
				t.Errorf("capacity %d, %s: %v allocations per Pin, want 0", capacity, name, n)
			}
		}
	}
}

// BenchmarkCompact times Manager.Compact on the paper's geometry: a
// partition of 700 members of 133 bytes, of which a tenth or nine tenths
// survive, their headers handed over in a shuffled (copy) order beside the
// members' as AppendMembers lists them. Each iteration rebuilds the partition,
// fetches the headers and removes the dead from the store, as gc.Heap.Collect
// does before it compacts, with the timer stopped; Compact allocates nothing.
func BenchmarkCompact(b *testing.B) {
	const members = 700
	for _, pct := range []int{10, 90} {
		b.Run(fmt.Sprintf("survive=%d%%", pct), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			live := make([]objstore.OID, 0, members)
			dead := make([]objstore.OID, 0, members)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m, err := NewManager(DefaultConfig())
				if err != nil {
					b.Fatal(err)
				}
				live, dead = live[:0], dead[:0]
				for oid := objstore.OID(1); oid <= members; oid++ {
					if _, err := m.Allocate(oid, 133); err != nil {
						b.Fatal(err)
					}
					if rng.Intn(100) < pct {
						live = append(live, oid)
					} else {
						dead = append(dead, oid)
					}
				}
				rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
				listed, err := m.AppendMembers(nil, 0)
				if err != nil {
					b.Fatal(err)
				}
				for _, oid := range dead {
					_ = m.store.Remove(oid)
				}
				survivors := headers(m, live)
				b.StartTimer()
				res, err := m.Compact(0, listed, survivors)
				if err != nil || res.ReclaimedObjects != members-len(live) {
					b.Fatalf("Compact = %+v, %v with %d of %d surviving", res, err, len(live), members)
				}
			}
		})
	}
}
