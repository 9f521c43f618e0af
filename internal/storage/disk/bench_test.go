package disk

import (
	"fmt"
	"io"
	"slices"
	"testing"

	"odbgc/internal/objstore"
)

// memFS keeps the files in memory, so the layer benchmarks time the backend's
// own work and not the sandbox's disk: OSFS would put three real fsyncs of an
// 8 MB file inside every checkpoint.
type memFS map[string]*memFile

type memFile struct{ data []byte }

func (fs memFS) Open(name string) (File, error) {
	if fs[name] == nil {
		fs[name] = &memFile{}
	}
	return fs[name], nil
}

func (fs memFS) Remove(name string) error { delete(fs, name); return nil }

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(f.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// WriteAt extends the file within its capacity when it can: a benchmark that
// presizes the file (slices.Grow) then times the backend and not growslice.
func (f *memFile) WriteAt(p []byte, off int64) (int, error) {
	if n, end := len(f.data), int(off)+len(p); end > n {
		f.data = slices.Grow(f.data, end-n)[:end]
		if int(off) > n {
			clear(f.data[n:off]) // a hole reads as zeros, whatever a truncate left there
		}
	}
	return copy(f.data[off:], p), nil
}

func (f *memFile) Size() (int64, error) { return int64(len(f.data)), nil }

func (f *memFile) Truncate(size int64) error {
	if size > int64(len(f.data)) {
		return fmt.Errorf("memFile: truncate to %d beyond %d bytes", size, len(f.data))
	}
	f.data = f.data[:size]
	return nil
}

func (f *memFile) Sync() error  { return nil }
func (f *memFile) Close() error { return nil }

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
// WAL tail, digest the recovered state.
func BenchmarkOpen(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("objects=%d", n), func(b *testing.B) {
			fs := memFS{}
			buildBenchDB(b, fs, n)
			b.ReportAllocs()
			b.ResetTimer()
			objects := 0
			for i := 0; i < b.N; i++ {
				s, info, err := Open(Options{FS: fs, Fsync: FsyncNever})
				if err != nil {
					b.Fatal(err)
				}
				objects += info.Objects
				if err := s.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(objects)/b.Elapsed().Seconds(), "objects/s")
		})
	}
}

// BenchmarkCheckpoint times one full-image checkpoint of a fixed committed
// state: plan the image, serialize the mirror through the two page windows,
// which write it out in runs, flip the meta page, prune the WAL. writes/op
// counts the WriteAts heap.db takes for it, the meta page's among them. The file is presized to the two
// alternating images it settles at, so no iteration pays for growing it.
func BenchmarkCheckpoint(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("objects=%d", n), func(b *testing.B) {
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
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Checkpoint(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(s.NumObjects())*float64(b.N)/b.Elapsed().Seconds(), "objects/s")
			b.ReportMetric(float64(fs.writes)/float64(b.N), "writes/op")
		})
	}
}

// BenchmarkCommit times what a durable engine pays per acknowledged request:
// stage one pointer store, encode the batch, append it with one write, sync
// per policy, fold it into the committed mirror. The in-memory FS syncs for
// free, so the three policies differ by the backend's own bookkeeping only;
// the device's latency is the repository benchmark's serve-durable. The path
// reuses the store's staging and encode buffers and must not allocate.
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
			if n := testing.AllocsPerRun(200, commit); n != 0 {
				b.Fatalf("%v allocations per commit, want 0", n)
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
