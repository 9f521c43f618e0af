package server

import (
	"context"
	"strings"
	"testing"
	"time"

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
