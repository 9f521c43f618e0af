package server

import (
	"fmt"
	"testing"

	"odbgc/internal/gc"
	"odbgc/internal/objstore"
	"odbgc/internal/storage"
	"odbgc/internal/storage/disk"
)

// BenchmarkRebuildHeap times the second half of a restart: populating an empty
// heap from a store disk.Open has already recovered. The database has the
// restart workload's shape (rooted 8-slot hubs, 8 slotless leaves each); its
// files live in the benchmark's temporary directory and are read once,
// outside the timer.
func BenchmarkRebuildHeap(b *testing.B) {
	for _, n := range []int{10_000, 200_000} {
		b.Run(fmt.Sprintf("objects=%d", n), func(b *testing.B) {
			st, _, err := disk.Open(disk.Options{FS: disk.OSFS{Dir: b.TempDir()}, Fsync: disk.FsyncNever})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			must := func(err error) {
				if err != nil {
					b.Helper()
					b.Fatal(err)
				}
			}
			for hub := objstore.OID(1); int(hub)-1+9 <= n; hub += 9 {
				must(st.LogAlloc(hub, objstore.ClassUnknown, 200, 8))
				must(st.LogRoot(hub, true))
				for k := 0; k < 8; k++ {
					must(st.LogAlloc(hub+1+objstore.OID(k), objstore.ClassUnknown, 100, 0))
					must(st.LogSet(hub, k, hub+1+objstore.OID(k)))
				}
				must(st.Commit())
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mgr, err := storage.NewManager(storage.DefaultConfig())
				if err != nil {
					b.Fatal(err)
				}
				heap := gc.NewHeap(objstore.NewStore(), mgr)
				if err := RebuildHeap(heap, st); err != nil {
					b.Fatal(err)
				}
				if heap.Store().Len() != st.NumObjects() {
					b.Fatalf("rebuilt %d of %d objects", heap.Store().Len(), st.NumObjects())
				}
			}
			b.ReportMetric(float64(st.NumObjects())*float64(b.N)/b.Elapsed().Seconds(), "objects/s")
		})
	}
}
