package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"odbgc/internal/gc"
	"odbgc/internal/objstore"
	"odbgc/internal/server"
	"odbgc/internal/storage"
	"odbgc/internal/storage/disk"
)

// restartSpec sizes the restart workload's database: groups rooted hubs of
// slotsPerHub leaves each, checkpointed, followed by a WAL tail of tailBatches
// committed batches that recovery has to replay.
type restartSpec struct {
	groups      int
	tailBatches int
}

// restartFull is 200 000 objects (about 25.6 MB modelled, a 10.5 MB heap.db):
// large enough that the full-image checkpoint costs on the order of 100 ms.
var restartFull = restartSpec{groups: 22222, tailBatches: 2000}

func (s restartSpec) objects() int { return s.groups*(1+slotsPerHub) + s.tailBatches }

// restartDB is a built database directory and what went into it.
type restartDB struct {
	dir       string
	objects   int
	userBytes int // bytes of created objects plus 8 per stored pointer
	written   fsCounts
}

func newHeap() (*gc.Heap, error) {
	mgr, err := storage.NewManager(storage.DefaultConfig())
	if err != nil {
		return nil, err
	}
	return gc.NewHeap(objstore.NewStore(), mgr), nil
}

// buildRestartDB builds the database through gc.Heap with the durable backend
// attached (one committed batch per hub group), checkpoints, appends the WAL
// tail (each batch replaces one leaf, chosen by the seeded stream) and closes.
// With attach false the same heap is built with no backend, for the mirror's
// cost. The heap is returned still referenced so its Go heap can be read.
func buildRestartDB(dir string, spec restartSpec, seed int64, attach bool) (*restartDB, *gc.Heap, *disk.Store, error) {
	heap, err := newHeap()
	if err != nil {
		return nil, nil, nil, err
	}
	db := &restartDB{dir: dir}
	var st *disk.Store
	var fs *deviceFS
	if attach {
		fs = newDeviceFS(dir, nil)
		if st, _, err = disk.Open(disk.Options{FS: fs, Fsync: disk.FsyncAlways}); err != nil {
			return nil, nil, nil, err
		}
		heap.SetDurable(st)
	}
	commit := func() error {
		if st == nil {
			return nil
		}
		return st.Commit()
	}
	create := func(size, slots int) (objstore.OID, error) {
		oid := heap.Store().NextOID()
		db.objects++
		db.userBytes += size
		return oid, heap.Create(oid, objstore.ClassUnknown, size, slots)
	}
	hubs := make([]objstore.OID, spec.groups)
	leaves := make([][slotsPerHub]objstore.OID, spec.groups)
	for g := range hubs {
		hub, err := create(hubBytes, slotsPerHub)
		if err == nil {
			err = heap.AddRoot(hub)
		}
		if err != nil {
			return nil, nil, nil, err
		}
		hubs[g] = hub
		for s := 0; s < slotsPerHub; s++ {
			leaf, err := create(leafBytes, 0)
			if err == nil {
				err = heap.Overwrite(hub, s, objstore.NilOID, leaf, true)
			}
			if err != nil {
				return nil, nil, nil, err
			}
			leaves[g][s] = leaf
			db.userBytes += 8
		}
		if err := commit(); err != nil {
			return nil, nil, nil, err
		}
	}
	if st != nil {
		if err := st.Checkpoint(); err != nil {
			return nil, nil, nil, err
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for b := 0; b < spec.tailBatches; b++ {
		g, s := rng.Intn(spec.groups), rng.Intn(slotsPerHub)
		leaf, err := create(leafBytes, 0)
		if err == nil {
			err = heap.Overwrite(hubs[g], s, leaves[g][s], leaf, false)
		}
		if err == nil {
			err = commit()
		}
		if err != nil {
			return nil, nil, nil, err
		}
		leaves[g][s] = leaf
		db.userBytes += 8
	}
	if fs != nil {
		db.written = fs.counts()
	}
	return db, heap, st, nil
}

// recovery is one disk.Open + server.RebuildHeap, odbgcd's boot path.
type recovery struct {
	openNs, rebuildNs int64
	info              *disk.RecoveryInfo
	store             *disk.Store
	heap              *gc.Heap
}

func recoverDB(dir string, tc *traceCtx) (*recovery, error) {
	fs := newDeviceFS(dir, tc)
	t0 := time.Now()
	h := tc.push("disk.open")
	st, info, err := disk.Open(disk.Options{FS: fs, Fsync: disk.FsyncAlways})
	tc.pop(h)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	heap, err := newHeap()
	if err != nil {
		_ = st.Close()
		return nil, err
	}
	h = tc.push("server.rebuild_heap")
	err = server.RebuildHeap(heap, st)
	tc.pop(h)
	if err != nil {
		_ = st.Close()
		return nil, err
	}
	return &recovery{
		openNs: int64(t1.Sub(t0)), rebuildNs: int64(time.Since(t1)),
		info: info, store: st, heap: heap,
	}, nil
}

func runRestart(rc runConfig) (*result, error) { return runRestartSpec(rc, restartFull) }

func runRestartSpec(rc runConfig, spec restartSpec) (*result, error) {
	res := newResult(rc)
	base := filepath.Join(rc.outDir, "data", fmt.Sprintf("%s-%d", rc.workload, os.Getpid()))
	defer os.RemoveAll(base)
	dirA, dirB := filepath.Join(base, "recover"), filepath.Join(base, "checkpoint")

	// Set-up: build the database, setupRepeats times; keep the last.
	cal := newCalibrated()
	var setupS []float64
	var db *restartDB
	for i := 0; i < setupRepeats; i++ {
		if err := os.RemoveAll(dirA); err != nil {
			return res, err
		}
		wall, factor, err := cal.sample(func() error {
			var st *disk.Store
			var err error
			if db, _, st, err = buildRestartDB(dirA, spec, rc.seed, true); err != nil {
				return err
			}
			return st.Close()
		})
		if err != nil {
			return res, err
		}
		setupS = append(setupS, wall.Seconds()*factor)
	}
	res.set("setup_s", median(setupS), len(setupS))
	if db.objects != spec.objects() {
		res.fail("built %d objects, want %d", db.objects, spec.objects())
	}
	// Checkpoints are timed on a copy: a checkpoint prunes the WAL, and the
	// recovery cycles need theirs to stay.
	if err := copyDir(dirA, dirB); err != nil {
		return res, err
	}
	var tc *traceCtx
	if rc.traced {
		tc = &traceCtx{log: newSpanLog(1 << 20)}
		tc.log.off.Store(true)
	}
	fsB := newDeviceFS(dirB, tc)
	storeB, _, err := disk.Open(disk.Options{FS: fsB, Fsync: disk.FsyncAlways})
	if err != nil {
		return res, err
	}
	defer storeB.Close()

	var baseRecoverUs []float64
	if rc.traced {
		// Untraced baseline for the overhead figure.
		for i := 0; i < 3; i++ {
			rec, err := recoverDB(dirA, nil)
			if err != nil {
				return res, err
			}
			baseRecoverUs = append(baseRecoverUs, float64(rec.openNs+rec.rebuildNs)/1e3)
			_ = rec.store.Close()
		}
		tc.log.off.Store(false)
	}

	// recoverUs and checkpointUs are calibrated (calib.go); the per-layer
	// splits stay raw.
	var recoverUs, rawRecoverUs, openMs, rebuildMs, checkpointUs, rawCheckpointUs []float64
	var pageBytes []float64
	var digest [sha256.Size]byte
	var batches int
	cal.reference()
	t0, spent0 := time.Now(), cal.spent
	for cycle := 0; time.Since(t0) < rc.seconds || cycle < 2; cycle++ {
		tc.setOp(0, uint64(cycle))
		var rec *recovery
		_, factor, err := cal.sample(func() (err error) { rec, err = recoverDB(dirA, tc); return })
		res.Attempted++
		if err != nil {
			res.Failed++
			res.addError(err.Error())
			break
		}
		if cycle == 0 {
			digest, batches = rec.info.Digest, rec.info.BatchesReplayed
		}
		switch {
		case rec.info.Digest != digest:
			res.fail("cycle %d recovered digest %x, first cycle %x", cycle, rec.info.Digest[:6], digest[:6])
		case rec.info.Objects != spec.objects() || rec.heap.Store().Len() != spec.objects():
			res.fail("cycle %d recovered %d objects (%d rebuilt), want %d", cycle, rec.info.Objects, rec.heap.Store().Len(), spec.objects())
		case rec.info.BatchesReplayed != spec.tailBatches || rec.info.TornTail:
			res.fail("cycle %d replayed %d batches (torn tail %v), want %d", cycle, rec.info.BatchesReplayed, rec.info.TornTail, spec.tailBatches)
		}
		if err := rec.store.Close(); err != nil {
			res.fail("close after recovery: %v", err)
		}
		rawRecoverUs = append(rawRecoverUs, float64(rec.openNs+rec.rebuildNs)/1e3)
		recoverUs = append(recoverUs, float64(rec.openNs+rec.rebuildNs)/1e3*factor)
		openMs = append(openMs, float64(rec.openNs)/1e6)
		rebuildMs = append(rebuildMs, float64(rec.rebuildNs)/1e6)
		// Start the checkpoints, and the next recovery, from a collected Go
		// heap: otherwise the 64 MB this recovery built is collected at a
		// point that differs from cycle to cycle.
		rec = nil
		runtime.GC()
		cal.reference()

		// Two checkpoints per recovery: they cost a tenth of it, and twice
		// the samples steady their median.
		for i := 0; i < 2 && err == nil; i++ {
			before := fsB.counts()
			var wall time.Duration
			wall, factor, err = cal.sample(func() error {
				h := tc.push("disk.checkpoint")
				err := storeB.Checkpoint()
				tc.pop(h)
				return err
			})
			res.Attempted++
			if err == nil {
				rawCheckpointUs = append(rawCheckpointUs, float64(wall)/1e3)
				checkpointUs = append(checkpointUs, float64(wall)/1e3*factor)
				pageBytes = append(pageBytes, float64(fsB.counts().sub(before).pageBytes))
			}
		}
		if err != nil {
			res.Failed++
			res.addError("checkpoint: " + err.Error())
			break
		}
	}
	wall := time.Since(t0) - (cal.spent - spent0) // the traced pass's span coverage is of the program's time
	if len(recoverUs) == 0 || len(checkpointUs) == 0 {
		return res, fmt.Errorf("no restart cycle completed")
	}
	if storeB.Digest() != digest {
		res.fail("checkpointed store's digest differs from the recovered one")
	}
	res.note("objects", float64(spec.objects()))
	res.note("cycles", float64(len(recoverUs)))
	res.note("wal_tail_batches", float64(batches))
	res.note("machine_slowdown", cal.slowdown())
	res.note("raw_lat_p50_us", median(rawRecoverUs))
	res.note("raw_stall_us", median(rawCheckpointUs))

	if rc.traced {
		tc.log.off.Store(true)
		return res, restartTraced(rc, spec, db, res, tc, wall, baseRecoverUs, rawRecoverUs, openMs, rebuildMs, rawCheckpointUs, pageBytes)
	}
	rec := median(recoverUs)
	res.set("ops_per_s", float64(spec.objects())/(rec/1e6), len(recoverUs))
	res.set("lat_p50_us", rec, len(recoverUs))
	res.set("stall_us", median(checkpointUs), len(checkpointUs))

	// What odbgcd holds once it has booted: the store with its committed
	// mirror, and the rebuilt heap.
	if err := storeB.Close(); err != nil {
		res.fail("close: %v", err)
	}
	recoverUs, checkpointUs = nil, nil
	booted, err := recoverDB(dirA, nil)
	if err != nil {
		return res, err
	}
	res.set("live_heap_mb", liveHeapMiB(), 1)
	runtime.KeepAlive(booted)
	return res, booted.store.Close()
}

// restartTraced fills the per-layer rows of the restart workload.
func restartTraced(rc runConfig, spec restartSpec, db *restartDB, res *result, tc *traceCtx, wall time.Duration,
	baseRecoverUs, recoverUs, openMs, rebuildMs, checkpointUs, pageBytes []float64) error {
	res.set("disk.open_ms", median(openMs), len(openMs))
	res.set("disk.rebuild_ms", median(rebuildMs), len(rebuildMs))
	res.set("disk.replay_batches", float64(spec.tailBatches), 1)
	ckMs := make([]float64, len(checkpointUs))
	for i, us := range checkpointUs {
		ckMs[i] = us / 1e3
	}
	res.set("disk.checkpoint_p50_ms", median(ckMs), len(ckMs))
	res.set("disk.checkpoint_max_ms", maxOf(ckMs), len(ckMs))
	res.set("disk.page_bytes_per_checkpoint", median(pageBytes), len(pageBytes))
	res.set("disk.write_amp", ratio(float64(db.written.walBytes+db.written.pageBytes), float64(db.userBytes)), db.objects)
	res.set("disk.wal_bytes_per_req", ratio(float64(db.written.walBytes), float64(spec.groups+spec.tailBatches)), spec.groups+spec.tailBatches)
	res.set("disk.syncs_per_req", ratio(float64(db.written.syncs), float64(spec.groups+spec.tailBatches)), spec.groups+spec.tailBatches)
	var fileBytes int64
	for _, name := range []string{"heap.db", "wal.log"} {
		if fi, err := os.Stat(filepath.Join(db.dir, name)); err == nil {
			fileBytes += fi.Size()
		}
	}
	res.set("disk.file_bytes_per_object", float64(fileBytes)/float64(db.objects), db.objects)
	res.set("storage.db_bytes", float64(spec.groups*(hubBytes+slotsPerHub*leafBytes)+spec.tailBatches*leafBytes), 1)

	// The mirror: Go heap of the same database built with and without the
	// backend attached.
	before := goHeapBytes()
	_, bare, _, err := buildRestartDB("", spec, rc.seed, false)
	if err != nil {
		return err
	}
	bareBytes := goHeapBytes() - before
	res.set("storage.partitions", float64(bare.NumPartitions()), 1)
	runtime.KeepAlive(bare)
	bare = nil
	before = goHeapBytes()
	mirrorDir := filepath.Join(filepath.Dir(db.dir), "mirror")
	_, attached, st, err := buildRestartDB(mirrorDir, spec, rc.seed, true)
	if err != nil {
		return err
	}
	attachedBytes := goHeapBytes() - before
	runtime.KeepAlive(attached)
	if err := st.Close(); err != nil {
		return err
	}
	res.note("go_heap_bytes_per_object_no_backend", bareBytes/float64(db.objects))
	res.set("disk.heap_bytes_per_object", (attachedBytes-bareBytes)/float64(db.objects), db.objects)

	res.set("bench.trace_overhead_pct", 100*(median(recoverUs)/median(baseRecoverUs)-1), len(recoverUs))
	spans := tc.log.spans()
	setSelfMetrics(res, spans, wall)
	res.note("spans_dropped", float64(tc.log.dropped.Load()))
	return writeSpansJSONL(filepath.Join(rc.outDir, "spans-"+rc.workload+".jsonl"), spans)
}
