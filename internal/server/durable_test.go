package server

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"odbgc/internal/core"
	"odbgc/internal/fault"
	"odbgc/internal/gc"
	"odbgc/internal/objstore"
	"odbgc/internal/obs"
	"odbgc/internal/simerr"
	"odbgc/internal/storage"
	"odbgc/internal/storage/disk"
	"odbgc/internal/storage/disk/crashtest"
)

// TestWideCreateRefusedOverTheWire: an object with more slots than a
// checkpoint page holds must be refused at the create op. Once committed it
// is auto-rooted and unreclaimable, and every later checkpoint would fail on
// it, so the WAL would grow without bound.
func TestWideCreateRefusedOverTheWire(t *testing.T) {
	st, _, err := disk.Open(disk.Options{FS: disk.OSFS{Dir: t.TempDir()}, Fsync: disk.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := st.Close(); err != nil {
			t.Error(err)
		}
	}()
	ts := startServer(t, Config{}, EngineConfig{Durable: st})
	cli, err := Dial(ts.addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cli.Close() }()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	for _, slots := range []int{disk.MaxSlots + 1, 1100, 1_000_000_000, -1} {
		resp, err := cli.Do(ctx, Request{Op: OpCreate, Size: 1, Slots: slots})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != StatusError || !strings.Contains(resp.Error, "slots") {
			t.Errorf("create with %d slots: status %q, error %q; want a refusal naming the slots", slots, resp.Status, resp.Error)
		}
	}
	// The widest object the format holds is still served.
	if _, err := cli.Create(ctx, 1, disk.MaxSlots); err != nil {
		t.Errorf("create with %d slots: %v", disk.MaxSlots, err)
	}

	// The engine goroutine owns the store while it serves; checkpoint once it
	// has drained.
	_ = cli.Close()
	ts.beginDrain()
	ts.waitFinished(t)
	if st.NumObjects() != 1 {
		t.Errorf("store holds %d objects, want the one accepted create", st.NumObjects())
	}
	if err := st.Checkpoint(); err != nil {
		t.Errorf("checkpoint after refused creates: %v", err)
	}
}

// durableCounts drives ops through a durable server under the never-collect
// policy (so no reclaim batch commits behind the requests), drains it, and
// returns the commit and checkpoint counters /metrics would show.
func durableCounts(t *testing.T, ops func(ctx context.Context, cli *Client)) (commits, checkpoints float64) {
	t.Helper()
	st, _, err := disk.Open(disk.Options{FS: disk.OSFS{Dir: t.TempDir()}, Fsync: disk.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := st.Close(); err != nil {
			t.Error(err)
		}
	}()
	ts := startServer(t, Config{}, EngineConfig{Durable: st, Policy: core.NeverCollect{}})
	cli, err := Dial(ts.addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ops(ctx, cli)
	_ = cli.Close()
	ts.beginDrain()
	ts.waitFinished(t)
	return ts.m().durableCommits.Value(), ts.m().durableCheckpoints.Value()
}

func mustOK(ctx context.Context, t *testing.T, cli *Client, req Request) Response {
	t.Helper()
	resp, err := cli.Do(ctx, req)
	if err != nil || resp.Status != StatusOK {
		t.Fatalf("%s: %+v, %v", req.Op, resp, err)
	}
	return resp
}

// TestReadsTakeNoCheckpoint: -checkpoint-every counts committed batches, and
// a request that logs nothing commits none — so a read-only workload never
// rewrites the image of a database it did not change.
func TestReadsTakeNoCheckpoint(t *testing.T) {
	commits, checkpoints := durableCounts(t, func(ctx context.Context, cli *Client) {
		oid := mustOK(ctx, t, cli, Request{Op: OpCreate, Size: 64, Slots: 1}).OID
		for i := 0; i < 5000; i++ {
			req := Request{Op: OpAccess, OID: oid}
			if i%3 == 0 {
				req = Request{Op: OpPing}
			}
			mustOK(ctx, t, cli, req)
		}
	})
	if commits != 1 || checkpoints != 0 {
		t.Errorf("one create then 5000 reads: %v commits, %v checkpoints; want 1 and 0", commits, checkpoints)
	}
}

// TestCheckpointEveryCountsCommittedBatches: 1 024 acknowledged mutations take
// exactly one checkpoint at the default interval, however many reads sit
// between them.
func TestCheckpointEveryCountsCommittedBatches(t *testing.T) {
	commits, checkpoints := durableCounts(t, func(ctx context.Context, cli *Client) {
		oid := mustOK(ctx, t, cli, Request{Op: OpCreate, Size: 64, Slots: 1}).OID
		for i := 1; i < 1024; i++ {
			mustOK(ctx, t, cli, Request{Op: OpSet, OID: oid, Slot: 0, Dst: oid})
			mustOK(ctx, t, cli, Request{Op: OpAccess, OID: oid})
			mustOK(ctx, t, cli, Request{Op: OpPing})
		}
	})
	if commits != 1024 || checkpoints != 1 {
		t.Errorf("1024 mutations among 2046 reads: %v commits, %v checkpoints; want 1024 and 1", commits, checkpoints)
	}
}

// TestRefusedOpsStageNothing: a create of size 0 or −1 and an unroot of an
// object that does not exist are refused by the heap before the object store
// or the log sees them. Each is answered StatusError, leaves no object, and
// commits no batch.
func TestRefusedOpsStageNothing(t *testing.T) {
	commits, _ := durableCounts(t, func(ctx context.Context, cli *Client) {
		for _, req := range []Request{
			{Op: OpCreate, Size: 0, Slots: 1},
			{Op: OpCreate, Size: -1},
			{Op: OpUnroot, OID: 7},
		} {
			resp, err := cli.Do(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			if resp.Status != StatusError {
				t.Errorf("%s of size %d, oid %d: status %q, want %q", req.Op, req.Size, req.OID, resp.Status, StatusError)
			}
		}
		if n := mustOK(ctx, t, cli, Request{Op: OpStats}).Stats.Objects; n != 0 {
			t.Errorf("refused ops left %d objects", n)
		}
	})
	if commits != 0 {
		t.Errorf("refused ops committed %v batches, want 0", commits)
	}
}

// TestCreateRefusedByTheLogLeavesNoObject: an object LogAlloc refuses — more
// slots than a data page holds, a size beyond 32 bits — used to stay in the
// heap's object store. That store is what a checkpoint writes, so a refused
// create must leave nothing there: the next commit and checkpoint succeed and
// reopen to the one object that was logged.
func TestCreateRefusedByTheLogLeavesNoObject(t *testing.T) {
	dir := t.TempDir()
	st, _, err := disk.Open(disk.Options{FS: disk.OSFS{Dir: dir}, Fsync: disk.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	heap := newTestHeap(t, storage.DefaultConfig())
	heap.SetDurable(st)
	if err := heap.Create(1, objstore.ClassUnknown, 10, 2); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ size, slots int }{{10, disk.MaxSlots + 1}, {1 << 33, 0}} {
		if err := heap.Create(heap.Store().NextOID(), objstore.ClassUnknown, c.size, c.slots); err == nil {
			t.Errorf("create of size %d with %d slots accepted", c.size, c.slots)
		}
		if n := heap.Store().Len(); n != 1 {
			t.Errorf("refused create of size %d with %d slots left %d objects, want 1", c.size, c.slots, n)
		}
	}
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, info, err := disk.Open(disk.Options{FS: disk.OSFS{Dir: dir}, Fsync: disk.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if info.Objects != 1 || info.BatchesReplayed != 0 {
		t.Errorf("reopened %d objects, %d batches replayed; want the checkpointed object alone", info.Objects, info.BatchesReplayed)
	}
}

// TestUnplaceableCreateKeepsTheDatabaseBootable: a create the storage manager
// refuses — size 0, or larger than a page — used to enter the object store
// and the log before the manager said no. Once committed, the unplaced object
// made every later RebuildHeap fail ("size 9000 exceeds page size 8192"). The
// heap now refuses first, so the commit carries nothing of it.
func TestUnplaceableCreateKeepsTheDatabaseBootable(t *testing.T) {
	dir := t.TempDir()
	st, _, err := disk.Open(disk.Options{FS: disk.OSFS{Dir: dir}, Fsync: disk.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	heap := newTestHeap(t, storage.DefaultConfig())
	heap.SetDurable(st)
	if err := heap.Create(1, objstore.ClassUnknown, 10, 1); err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{0, 9000} {
		if err := heap.Create(heap.Store().NextOID(), objstore.ClassUnknown, size, 0); err == nil {
			t.Errorf("create of size %d accepted", size)
		}
	}
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, _, err := disk.Open(disk.Options{FS: disk.OSFS{Dir: dir}, Fsync: disk.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	rebuilt := newTestHeap(t, storage.DefaultConfig())
	if err := RebuildHeap(rebuilt, st2); err != nil {
		t.Fatalf("rebuild after refused creates: %v", err)
	}
	if n := rebuilt.Store().Len(); n != 1 {
		t.Errorf("rebuilt heap holds %d objects, want the one accepted create", n)
	}
	if err := rebuilt.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestOversizedCreateOpIsRefused: the create op checks only that the size is
// positive, so one client create larger than a page reached the heap. It must
// get an error response, leave nothing behind, and the engine keep serving; a
// restart then boots.
func TestOversizedCreateOpIsRefused(t *testing.T) {
	dir := t.TempDir()
	st, _, err := disk.Open(disk.Options{FS: disk.OSFS{Dir: dir}, Fsync: disk.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := st.Close(); err != nil {
			t.Error(err)
		}
	}()
	ts := startServer(t, Config{}, EngineConfig{Durable: st})
	cli, err := Dial(ts.addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cli.Close() }()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	resp, err := cli.Do(ctx, Request{Op: OpCreate, Size: 9000, Slots: 1})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusError || !strings.Contains(resp.Error, "exceeds page size") {
		t.Errorf("create of 9000 bytes: status %q, error %q; want a refusal naming the page size", resp.Status, resp.Error)
	}
	oid, err := cli.Create(ctx, 100, 1)
	if err != nil {
		t.Fatalf("create after the refusal: %v", err)
	}
	mustOK(ctx, t, cli, Request{Op: OpAccess, OID: oid})

	_ = cli.Close()
	ts.beginDrain()
	ts.waitFinished(t)
	if st.NumObjects() != 1 {
		t.Errorf("store holds %d objects, want the one accepted create", st.NumObjects())
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if st, _, err = disk.Open(disk.Options{FS: disk.OSFS{Dir: dir}, Fsync: disk.FsyncNever}); err != nil {
		t.Fatal(err)
	}
	if err := RebuildHeap(newTestHeap(t, storage.DefaultConfig()), st); err != nil {
		t.Errorf("restart after an oversized create: %v", err)
	}
}

// TestFreshHeapBesideRecoveredObjectsIsRefused: an empty heap attached to a
// store that recovered objects hands out OIDs from 1, which are live. Its
// first create used to commit — the batch reached the WAL before the store
// found the duplicate — and every later Open failed on "alloc of existing".
// The store now refuses such a heap before anything is written.
func TestFreshHeapBesideRecoveredObjectsIsRefused(t *testing.T) {
	dir := t.TempDir()
	open := func() *disk.Store {
		t.Helper()
		st, _, err := disk.Open(disk.Options{FS: disk.OSFS{Dir: dir}, Fsync: disk.FsyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	st := open()
	for oid := objstore.OID(1); oid <= 3; oid++ {
		if err := st.LogAlloc(oid, objstore.ClassUnknown, 10, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	want := st.Digest()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	walSize := func() int64 {
		t.Helper()
		fi, err := os.Stat(filepath.Join(dir, "wal.log"))
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}

	st = open()
	before := walSize()
	heap := newTestHeap(t, storage.DefaultConfig())
	heap.SetDurable(st)
	_ = heap.Create(heap.Store().NextOID(), objstore.ClassUnknown, 10, 0) // refused or not, it must not commit
	if err := st.Commit(); err == nil {
		t.Error("commit of the fresh heap's create succeeded")
	}
	if after := walSize(); after != before {
		t.Errorf("the WAL grew from %d to %d bytes", before, after)
	}
	_ = st.Close() // a poisoned store reports its poison
	st = open()
	defer st.Close()
	if got := st.Digest(); got != want {
		t.Errorf("reopened digest %x, want %x", got[:6], want[:6])
	}
}

// chaosLoad serves 3 000 creates, sets between rooted objects and unroots of
// the oldest through an engine over fs, drains it and closes the store. It
// returns the engine's metrics and how many requests failed, each with a
// classified error.
func chaosLoad(t *testing.T, fs disk.FS) (*Metrics, int) {
	t.Helper()
	st, _, err := disk.Open(disk.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := storage.NewManager(storage.Config{PageSize: 1024, PagesPerPartition: 4, BufferPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	pol, err := core.NewFixedRate(16)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMetrics(obs.NewRegistry())
	eng, err := NewEngine(gc.NewHeap(objstore.NewStore(), mgr), EngineConfig{
		Policy: pol, Selection: gc.UpdatedPointer{}, Metrics: m, Durable: st, CheckpointEvery: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	ran := make(chan error, 1)
	go func() { ran <- eng.Run(context.Background()) }()

	// Every request is one the engine accepts when its commit lands. A
	// request whose commit tore still changed the heap, and its batch
	// commits with the next one: a failed unroot unroots all the same.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var rooted []uint64
	failed := 0
	for i := 0; i < 3000; i++ {
		req := Request{ID: uint64(i), Op: OpCreate, Size: 64, Slots: 2}
		switch {
		case len(rooted) < 2 || i%5 == 0 || i%5 == 2:
		case i%5 == 4:
			req = Request{ID: uint64(i), Op: OpUnroot, OID: rooted[0]}
			rooted = rooted[1:]
		default:
			req = Request{ID: uint64(i), Op: OpSet, OID: rooted[i%len(rooted)], Slot: i % 2, Dst: rooted[(7*i+3)%len(rooted)]}
		}
		resp := eng.Submit(ctx, req, nil)
		switch {
		case resp.Status == StatusOK:
			if req.Op == OpCreate {
				rooted = append(rooted, resp.OID)
			}
		case resp.Status == StatusError && strings.Contains(resp.Error, "simerr: "):
			failed++
		default:
			t.Fatalf("%+v answered %+v: neither OK nor a classified error", req, resp)
		}
	}
	eng.BeginDrain()
	eng.CloseQueue()
	select {
	case err := <-ran:
		if err != nil {
			t.Fatalf("Run after drain: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return on drain")
	}
	if err := st.Close(); err != nil && simerr.Classify(err) == simerr.ClassOther {
		t.Errorf("close: unclassified error %v", err)
	}
	return m, failed
}

// TestDiskChaosUnderTheEngine: the engine that owns the WAL serves a few
// thousand creates, sets and unroots on a store whose filesystem tears 1 %
// of writes, lies on 2 % of fsyncs, and shortens or rots 0.5 % of reads each.
// Every response is OK or carries a classified error, a torn write reaches
// /metrics, Run returns on drain, and opening the store again afterwards
// recovers the objects the first reopen recovered: only a flipped bit may
// make an open refuse. Each of seeds 1–32 and 77 is a fault schedule of its
// own, held to every one of these.
func TestDiskChaosUnderTheEngine(t *testing.T) {
	seeds := []int64{77}
	for seed := int64(1); seed <= 32; seed++ {
		seeds = append(seeds, seed)
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { diskChaosUnderTheEngine(t, seed) })
	}
}

func diskChaosUnderTheEngine(t *testing.T, seed int64) {
	chaos := fault.NewDiskChaos(crashtest.NewJournalFS(), fault.DiskFaults{
		TornWriteProb: 0.01, FsyncLieProb: 0.02, ShortReadProb: 0.005, BitRotProb: 0.005,
	}, seed)
	m, failed := chaosLoad(t, chaos)
	served := chaos.Stats()
	t.Logf("serving met %+v; %d requests failed, %v checkpoints", served, failed, m.durableCheckpoints.Value())
	if served == (fault.DiskChaosStats{}) {
		t.Fatal("serving met no fault")
	}
	if got := m.errors[simerr.ClassOther].Value(); got != 0 {
		t.Errorf("odbgc_server_errors_other_total = %v, want 0", got)
	}
	if torn := m.errors[simerr.ClassTornWrite].Value(); served.TornWrites > 0 && torn == 0 {
		t.Errorf("%d torn writes injected, odbgc_server_errors_torn_write_total reads 0", served.TornWrites)
	}

	// Reopening reads what the chaos wrote, through the same short reads
	// and rot; it opens until one of those landed. A short read is resumed,
	// so it cannot make an open refuse (at seed 77, open 11 meets one).
	recovered := -1
	for opens := 0; chaos.Stats().ShortReads+chaos.Stats().BitFlips == 0; opens++ {
		if opens == 200 {
			t.Fatal("200 opens met no short read or bit rot")
		}
		flips := chaos.Stats().BitFlips
		re, info, err := disk.Open(disk.Options{FS: chaos})
		if err != nil {
			if simerr.Classify(err) == simerr.ClassOther {
				t.Errorf("reopen refused with an unclassified error: %v", err)
			}
			if chaos.Stats().BitFlips == flips {
				t.Errorf("open %d refused with no bit flipped: %v", opens, err)
			}
			t.Logf("open %d refused (classified %s): %v", opens, simerr.Classify(err), err)
			continue
		}
		if err := re.Close(); err != nil && simerr.Classify(err) == simerr.ClassOther {
			t.Errorf("close after reopen: unclassified error %v", err)
		}
		if recovered >= 0 && info.Objects != recovered {
			t.Errorf("open %d recovered %d objects, an earlier open %d", opens, info.Objects, recovered)
		}
		recovered = info.Objects
		t.Logf("open %d recovered %d objects, replayed %d batches", opens, info.Objects, info.BatchesReplayed)
	}
}

// TestShortReadsRefuseNoOpen: a store the engine wrote on a sound
// filesystem is opened 200 times through short reads only, at three rates,
// one seed per open. A short read is a fact about the device, not about the
// bytes: every open must recover what a plain open recovers. Classifying
// each short read as a torn page refused 3, 7 and 24 of the 200.
func TestShortReadsRefuseNoOpen(t *testing.T) {
	fs := crashtest.NewJournalFS()
	if _, failed := chaosLoad(t, fs); failed != 0 {
		t.Fatalf("%d requests failed on a sound filesystem", failed)
	}
	st, want, err := disk.Open(disk.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	for _, rate := range []float64{0.001, 0.005, 0.02} {
		refused, met := 0, uint64(0)
		for seed := int64(1); seed <= 200; seed++ {
			chaos := fault.NewDiskChaos(fs, fault.DiskFaults{ShortReadProb: rate}, seed)
			st, info, err := disk.Open(disk.Options{FS: chaos})
			met += chaos.Stats().ShortReads
			if err != nil {
				refused++
				t.Logf("rate %g seed %d: %v", rate, seed, err)
				continue
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			if info.Objects != want.Objects || info.BatchesReplayed != want.BatchesReplayed || info.Digest != want.Digest {
				t.Errorf("rate %g seed %d: recovered %d objects, %d batches; a plain open %d, %d, or another state",
					rate, seed, info.Objects, info.BatchesReplayed, want.Objects, want.BatchesReplayed)
			}
		}
		t.Logf("short-read rate %g: %d of 200 opens refused, %d short reads met", rate, refused, met)
		if refused != 0 {
			t.Errorf("short-read rate %g: %d of 200 opens refused, want 0", rate, refused)
		}
		if met == 0 {
			t.Errorf("short-read rate %g: 200 opens met no short read", rate)
		}
	}
}
