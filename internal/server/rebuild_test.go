package server

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"odbgc/internal/gc"
	"odbgc/internal/objstore"
	"odbgc/internal/storage"
	"odbgc/internal/storage/disk"
)

// rebuildByMutation is RebuildHeap as it was before gc.Heap.Load: every object
// recreated through Heap.Create, every non-nil slot replayed as an
// initializing overwrite, every root re-registered. It stays as the reference
// Load is held to: the same objects must leave the same heap.
func rebuildByMutation(heap *gc.Heap, next objstore.OID, each func(func(storage.ObjectState))) error {
	heap.Store().AdvanceNextOID(next)
	var err error
	each(func(o storage.ObjectState) {
		if err != nil {
			return
		}
		if cerr := heap.Create(o.OID, o.Class, o.Size, len(o.Slots)); cerr != nil {
			err = fmt.Errorf("server: recreate recovered object %v: %w", o.OID, cerr)
		}
	})
	if err != nil {
		return err
	}
	each(func(o storage.ObjectState) {
		if err != nil {
			return
		}
		for i, dst := range o.Slots {
			if dst.IsNil() {
				continue
			}
			if oerr := heap.Overwrite(o.OID, i, objstore.NilOID, dst, true); oerr != nil {
				err = fmt.Errorf("server: rewire recovered slot %v[%d]: %w", o.OID, i, oerr)
				return
			}
		}
		if o.Root {
			if rerr := heap.AddRoot(o.OID); rerr != nil {
				err = fmt.Errorf("server: re-root recovered object %v: %w", o.OID, rerr)
			}
		}
	})
	return err
}

func newTestHeap(t *testing.T, cfg storage.Config) *gc.Heap {
	t.Helper()
	mgr, err := storage.NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return gc.NewHeap(objstore.NewStore(), mgr)
}

// randomCommittedState drives a seeded history into a fresh durable store and
// leaves it committed: objects of 0, 1, 8, 21 and 33 slots (the last wider
// than the object store pools) and of sizes from a few bytes to a whole page,
// so that placement skips page tails and opens partitions; slots stored nil,
// backwards and forwards, near and far; roots set and cleared; objects
// reclaimed once nothing references them, which leaves the OIDs sparse; and at
// the end the newest objects reclaimed, which leaves the horizon above every
// live OID.
func randomCommittedState(t *testing.T, seed int64, pageSize, objects int) *disk.Store {
	t.Helper()
	st, _, err := disk.Open(disk.Options{FS: disk.OSFS{Dir: t.TempDir()}, Fsync: disk.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := st.Close(); err != nil {
			t.Error(err)
		}
	})
	must := func(err error) {
		if err != nil {
			t.Helper()
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	slots := map[objstore.OID][]objstore.OID{}
	var live []objstore.OID
	reclaim := func(i int) {
		dead := live[i]
		for src, ss := range slots {
			for k, dst := range ss {
				if dst == dead && src != dead {
					must(st.LogSet(src, k, objstore.NilOID))
					ss[k] = objstore.NilOID
				}
			}
		}
		must(st.LogReclaim([]objstore.OID{dead}))
		delete(slots, dead)
		live = append(live[:i], live[i+1:]...)
	}
	next := objstore.OID(1)
	for ; int(next) <= objects; next++ {
		size := 1 + rng.Intn(pageSize/8)
		switch rng.Intn(10) {
		case 0:
			size = pageSize - rng.Intn(3) // a page of its own, or nearly
		case 1, 2:
			size = pageSize/4 + rng.Intn(pageSize/2)
		}
		nslots := []int{0, 0, 0, 1, 1, 8, 8, 21, 33}[rng.Intn(9)]
		must(st.LogAlloc(next, objstore.Class(rng.Intn(8)), size, nslots))
		slots[next] = make([]objstore.OID, nslots)
		live = append(live, next)
		if rng.Intn(4) == 0 {
			must(st.LogRoot(next, true))
		}
		// The new object's slots point backwards (or at itself), and a few
		// stores anywhere in the database may now point forwards at it.
		store := func(src objstore.OID, i int) {
			dst := objstore.NilOID
			if rng.Intn(4) > 0 {
				dst = live[rng.Intn(len(live))]
			}
			must(st.LogSet(src, i, dst))
			slots[src][i] = dst
		}
		for i := 0; i < nslots; i++ {
			if rng.Intn(2) == 0 {
				store(next, i)
			}
		}
		for k := rng.Intn(4); k > 0; k-- {
			if src := live[rng.Intn(len(live))]; len(slots[src]) > 0 {
				store(src, rng.Intn(len(slots[src])))
			}
		}
		switch rng.Intn(12) {
		case 0:
			reclaim(rng.Intn(len(live)))
		case 1:
			must(st.LogRoot(live[rng.Intn(len(live))], false))
		}
		if rng.Intn(3) == 0 {
			must(st.Commit())
		}
		if rng.Intn(40) == 0 {
			must(st.Commit())
			must(st.Checkpoint())
		}
	}
	for k := 0; k < 3 && len(live) > 1; k++ {
		reclaim(len(live) - 1)
	}
	must(st.Commit())
	if top := live[len(live)-1]; st.NextOID() <= top+1 {
		t.Fatalf("horizon %v does not clear the newest live object %v", st.NextOID(), top)
	}
	return st
}

// TestLoadMatchesMutationPath licenses RebuildHeap's load: over seeded random
// committed states and three geometries — among them a buffer of three pages,
// where the second pass evicts and faults on nearly every object — the loaded
// heap and the one rebuilt through the mutator are the same heap, down to the
// buffer pool's order and the I/O counts.
func TestLoadMatchesMutationPath(t *testing.T) {
	geometries := []storage.Config{
		storage.DefaultConfig(),
		{PageSize: 1024, PagesPerPartition: 4, BufferPages: 3},
		{PageSize: 512, PagesPerPartition: 3, BufferPages: 16},
	}
	for seed := int64(1); seed <= 6; seed++ {
		cfg := geometries[int(seed)%len(geometries)]
		t.Run(fmt.Sprintf("seed=%d/page=%d", seed, cfg.PageSize), func(t *testing.T) {
			st := randomCommittedState(t, seed, cfg.PageSize, 600)
			loaded, replayed := newTestHeap(t, cfg), newTestHeap(t, cfg)
			if err := RebuildHeap(loaded, st); err != nil {
				t.Fatal(err)
			}
			if err := rebuildByMutation(replayed, st.NextOID(), st.ForEach); err != nil {
				t.Fatal(err)
			}
			if loaded.Store().Len() != st.NumObjects() || loaded.NumPartitions() < 3 {
				t.Fatalf("loaded %d of %d objects into %d partitions; want all of them, in several",
					loaded.Store().Len(), st.NumObjects(), loaded.NumPartitions())
			}
			got, want := loaded.Snapshot(), replayed.Snapshot()
			if len(want.Remset) == 0 || want.Disk.Stats.AppIO() == 0 {
				t.Fatalf("the state exercises nothing: %d remembered references, %d page I/Os", len(want.Remset), want.Disk.Stats.AppIO())
			}
			for _, f := range []struct {
				name      string
				got, want any
			}{
				{"object store", got.Store, want.Store},
				{"placements", got.Disk.Placements, want.Disk.Placements},
				{"partitions", got.Disk.Partitions, want.Disk.Partitions},
				{"buffered pages", got.Disk.Buffer, want.Disk.Buffer},
				{"remembered sets", got.Remset, want.Remset},
				{"I/O counts", loaded.Disk().Stats(), replayed.Disk().Stats()},
				{"buffer contents", loaded.Disk().BufferContents(), replayed.Disk().BufferContents()},
				{"whole snapshot", got, want},
			} {
				if !reflect.DeepEqual(f.got, f.want) {
					t.Errorf("%s differ:\nloaded   %+v\nreplayed %+v", f.name, f.got, f.want)
				}
			}
			if err := loaded.CheckInvariants(); err != nil {
				t.Errorf("loaded heap: %v", err)
			}
			if err := replayed.CheckInvariants(); err != nil {
				t.Errorf("replayed heap: %v", err)
			}
		})
	}
	t.Run("damaged", testLoadRefusals)
}

// testLoadRefusals feeds both rebuilds one damaged state per refusal. Neither
// may accept it, and where the refusal carries a sentinel both carry the same
// one.
func testLoadRefusals(t *testing.T) {
	cfg := storage.DefaultConfig()
	obj := func(oid objstore.OID, size int, slots ...objstore.OID) storage.ObjectState {
		return storage.ObjectState{OID: oid, Class: objstore.ClassAtomicPart, Size: size, Slots: slots}
	}
	for _, tc := range []struct {
		name     string
		state    []storage.ObjectState
		sentinel error
	}{
		{"duplicate OID", []storage.ObjectState{obj(1, 10), obj(2, 10), obj(2, 10)}, nil},
		{"nil OID", []storage.ObjectState{obj(0, 10)}, nil},
		{"slot target absent", []storage.ObjectState{obj(1, 10), obj(2, 10, 1, 7)}, nil},
		{"size 0", []storage.ObjectState{obj(1, 10), obj(2, 0)}, nil},
		{"negative size", []storage.ObjectState{obj(1, -5)}, nil},
		{"size above a page", []storage.ObjectState{obj(1, cfg.PageSize+1)}, nil},
		{"OID beyond the horizon", []storage.ObjectState{obj(1, 10), obj(100+objstore.MaxOIDGap, 10)}, objstore.ErrOIDRange},
		{"more slots than an object may have", []storage.ObjectState{obj(1, 10, make([]objstore.OID, objstore.MaxSlots+1)...)}, objstore.ErrSlotRange},
	} {
		each := func(fn func(storage.ObjectState)) {
			for _, o := range tc.state {
				fn(o)
			}
		}
		loaded, replayed := newTestHeap(t, cfg), newTestHeap(t, cfg)
		loaded.Store().AdvanceNextOID(100)
		lerr := loaded.Load(each)
		rerr := rebuildByMutation(replayed, 100, each)
		if lerr == nil || rerr == nil {
			t.Errorf("%s: load says %v, the mutation path %v; want both to refuse", tc.name, lerr, rerr)
			continue
		}
		if tc.sentinel != nil && !(errors.Is(lerr, tc.sentinel) && errors.Is(rerr, tc.sentinel)) {
			t.Errorf("%s: load says %v, the mutation path %v; want both to carry %v", tc.name, lerr, rerr, tc.sentinel)
		}
	}
}
