package server

import (
	"context"
	"strings"
	"testing"
	"time"

	"odbgc/internal/core"
	"odbgc/internal/storage/disk"
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
	reg := ts.live.Registry()
	return reg.Counter(MetricDurableCommits), reg.Counter(MetricDurableCheckpoints)
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
