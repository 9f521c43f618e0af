package disk

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"testing"

	"odbgc/internal/gc"
	"odbgc/internal/objstore"
	"odbgc/internal/storage"
)

// memFS keeps the files in memory, so the layer benchmarks time the backend's
// own work and not the sandbox's disk: OSFS would put three real fsyncs of an
// 8 MB file inside every checkpoint.
type memFS map[string]*memFile

func (fs memFS) Open(name string) (File, error) {
	if fs[name] == nil {
		fs[name] = &memFile{}
	}
	return fs[name], nil
}

func (fs memFS) Remove(name string) error { delete(fs, name); return nil }

// benchSizes are the object counts the layer benchmarks run at: one where a
// checkpoint image is a few hundred pages, and the restart workload's.
var benchSizes = []int{10_000, 200_000}

// buildBenchDB fills fs with the restart workload's shape at n objects:
// rooted 8-slot hubs each followed by its 8 slotless leaves, one committed
// batch per group, checkpointed, then a WAL tail of n/100 batches that each
// allocate a leaf and store it into a hub, left for recovery to replay.
func buildBenchDB(tb testing.TB, fs FS, n int) {
	tb.Helper()
	s, _, err := Open(Options{FS: fs, Fsync: FsyncNever})
	if err != nil {
		tb.Fatal(err)
	}
	must := func(err error) {
		if err != nil {
			tb.Helper()
			tb.Fatal(err)
		}
	}
	tail := n / 100
	next := objstore.OID(1)
	for int(next)-1+9 <= n-tail {
		hub := next
		must(s.LogAlloc(hub, objstore.ClassUnknown, 200, 8))
		must(s.LogRoot(hub, true))
		for k := 0; k < 8; k++ {
			must(s.LogAlloc(hub+1+objstore.OID(k), objstore.ClassUnknown, 100, 0))
			must(s.LogSet(hub, k, hub+1+objstore.OID(k)))
		}
		must(s.Commit())
		next += 9
	}
	must(s.Checkpoint())
	hubs := int(next-1) / 9
	for b := 0; b < tail; b++ {
		hub := objstore.OID(1 + 9*((b*7919)%hubs))
		must(s.LogAlloc(next, objstore.ClassUnknown, 100, 0))
		must(s.LogSet(hub, b%8, next))
		must(s.Commit())
		next++
	}
	must(s.Close())
}

// BenchmarkOpen times recovery alone: load the checkpoint image, replay the
// WAL tail, digest the recovered state. pages/op counts the heap.db pages it
// reads, the two meta slots among them.
func BenchmarkOpen(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("objects=%d", n), func(b *testing.B) {
			fs := memFS{}
			buildBenchDB(b, fs, n)
			b.ReportAllocs()
			b.ResetTimer()
			objects, pages := 0, 0
			for i := 0; i < b.N; i++ {
				s, info, err := Open(Options{FS: fs, Fsync: FsyncNever})
				if err != nil {
					b.Fatal(err)
				}
				objects += info.Objects
				pages += info.CheckpointPages
				if err := s.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(objects)/b.Elapsed().Seconds(), "objects/s")
			b.ReportMetric(float64(pages)/float64(b.N), "pages/op")
		})
	}
}

// BenchmarkDigest times the state digest recovery reports, over the
// recovered restart-shaped state. B/object is the stream SHA-256 is fed, per
// object.
func BenchmarkDigest(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("objects=%d", n), func(b *testing.B) {
			fs := memFS{}
			buildBenchDB(b, fs, n)
			s, _, err := Open(Options{FS: fs, Fsync: FsyncNever})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			var stream countingWriter
			writeDigestStream(&stream, s.objs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				digestSink = digest(s.objs)
			}
			b.ReportMetric(float64(s.NumObjects())*float64(b.N)/b.Elapsed().Seconds(), "objects/s")
			b.ReportMetric(float64(stream)/float64(s.NumObjects()), "B/object")
		})
	}
}

// digestSink keeps BenchmarkDigest's result live.
var digestSink [sha256.Size]byte

// countingWriter counts the bytes written to it.
type countingWriter int

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}

// BenchmarkCheckpoint times one full-image checkpoint of a fixed committed
// state: serialize the object store through the page window, which writes it out in
// runs, and flip the meta page. writes/op counts the WriteAts heap.db takes
// for it and pages/op the pages they carry, the meta page's among them. The
// file is presized to the two alternating images it settles at, so no
// iteration pays for growing it.
//
// The chain variant runs a heap on the recovered store, as a serving engine
// does, and its timed loop also assembles a state chain — the storage
// manager's state, then the heap's counters as one record — into a buffer it
// keeps, and writes it with the image: what a checkpoint that carried the
// controller's state would add. state_B/op is the chain's size.
func BenchmarkCheckpoint(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("objects=%d", n), func(b *testing.B) { benchCheckpoint(b, n, false) })
	}
	b.Run("chain", func(b *testing.B) {
		for _, n := range benchSizes {
			b.Run(fmt.Sprintf("objects=%d", n), func(b *testing.B) { benchCheckpoint(b, n, true) })
		}
	})
}

func benchCheckpoint(b *testing.B, n int, chain bool) {
	mem := memFS{}
	buildBenchDB(b, mem, n)
	heap := mem[heapFile]
	heap.data = slices.Grow(heap.data, 2*len(heap.data))
	fs := &flakyFS{FS: mem, name: heapFile}
	s, _, err := Open(Options{FS: fs, Fsync: FsyncNever})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	var h *gc.Heap
	if chain {
		m, err := storage.NewManager(storage.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		h = gc.NewHeap(objstore.NewStore(), m)
		if err := h.Load(s.Objects()); err != nil {
			b.Fatal(err)
		}
		s.Adopt(h.Store())
	}
	var state []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if chain {
			state = h.Disk().AppendState(state[:0])
			at := len(state)
			state = h.AppendState(le.AppendUint32(state, 0))
			le.PutUint32(state[at:], uint32(len(state)-at-4))
		}
		if err := s.checkpoint(state); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(s.NumObjects())*float64(b.N)/b.Elapsed().Seconds(), "objects/s")
	b.ReportMetric(float64(fs.writes)/float64(b.N), "writes/op")
	b.ReportMetric(float64(fs.written)/PageSize/float64(b.N), "pages/op")
	if chain {
		b.ReportMetric(float64(len(state)), "state_B/op")
	}
}

// BenchmarkCommit times what a durable engine pays per acknowledged request:
// stage one pointer store, encode the batch, append it with one write, sync
// per policy, apply it to the object store. The in-memory FS syncs for
// free, so the three policies differ by the backend's own bookkeeping only;
// the device's latency is the repository benchmark's serve-durable.
// TestCommitAllocatesNothing pins the path at zero allocations.
func BenchmarkCommit(b *testing.B) {
	for _, policy := range []FsyncPolicy{FsyncAlways, FsyncGroup, FsyncNever} {
		b.Run(policy.String(), func(b *testing.B) {
			s, _, err := Open(Options{FS: memFS{}, Fsync: policy})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			for oid := objstore.OID(1); oid <= 2; oid++ {
				if err := s.LogAlloc(oid, objstore.ClassAtomicPart, 128, 2); err != nil {
					b.Fatal(err)
				}
			}
			i := 0
			commit := func() {
				if err := s.LogSet(1, i%2, 2); err != nil {
					b.Fatal(err)
				}
				if err := s.Commit(); err != nil {
					b.Fatal(err)
				}
				i++
			}
			b.ReportAllocs()
			b.ResetTimer()
			for j := 0; j < b.N; j++ {
				// Prune the WAL outside the timer, so that it stays under
				// 2 MB and its file stops growing, whatever b.N is.
				if j%(1<<16) == 1<<16-1 {
					b.StopTimer()
					if err := s.Checkpoint(); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				commit()
			}
		})
	}
}
