package server

import (
	"context"
	"testing"
	"time"

	"odbgc/internal/core"
	"odbgc/internal/gc"
	"odbgc/internal/objstore"
	"odbgc/internal/obs"
	"odbgc/internal/storage"
)

// collectionLog keeps the engine's collection events.
type collectionLog struct {
	got []obs.Collection
}

func (l *collectionLog) Observe(e obs.Envelope) {
	if e.Collection != nil {
		l.got = append(l.got, *e.Collection)
	}
}

// TestEngineCollectionEventCarriesCycleRecord checks that a serving-side
// collection event is the control loop's whole record: the interval since the
// previous collection, the run's cumulative I/O and a strictly increasing
// index, not just the fields the engine used to copy by hand.
func TestEngineCollectionEventCarriesCycleRecord(t *testing.T) {
	mgr, err := storage.NewManager(storage.Config{PageSize: 1024, PagesPerPartition: 4, BufferPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	pol, err := core.NewFixedRate(4)
	if err != nil {
		t.Fatal(err)
	}
	events := &collectionLog{}
	eng, err := NewEngine(gc.NewHeap(objstore.NewStore(), mgr),
		EngineConfig{Policy: pol, Selection: gc.UpdatedPointer{}, Observer: events})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- eng.Run(ctx) }()
	do := func(req Request) Response {
		t.Helper()
		resp := eng.Submit(ctx, req, nil)
		if resp.Status != StatusOK {
			t.Fatalf("%s: %+v", req.Op, resp)
		}
		return resp
	}

	// Each response is sent before the collection its request triggered, so
	// the stats request that follows is answered just after that collection:
	// its totals are the ones the newest event must carry.
	hub := do(Request{Op: OpCreate, Size: 256, Slots: 1}).OID
	seen, prev := 0, uint64(0)
	for i := 0; i < 40 && seen < 3; i++ {
		child := do(Request{Op: OpCreate, Size: 128}).OID
		do(Request{Op: OpSet, OID: hub, Slot: 0, Dst: child})
		if prev != 0 {
			do(Request{Op: OpUnroot, OID: prev})
		}
		prev = child
		st := do(Request{Op: OpStats}).Stats
		if len(events.got) != int(st.Collections) {
			t.Fatalf("%d collection events for %d collections", len(events.got), st.Collections)
		}
		if len(events.got) == seen {
			continue
		}
		seen = len(events.got)
		ev := events.got[seen-1]
		if ev.Index != seen {
			t.Errorf("event %d has index %d", seen, ev.Index)
		}
		cum := ev.CumulativeIO
		if cum.AppReads+cum.AppWrites != st.AppIO || cum.GCReads+cum.GCWrites != st.GCIO || st.GCIO == 0 {
			t.Errorf("collection %d: cumulative I/O %+v, stats say app %d gc %d", seen, cum, st.AppIO, st.GCIO)
		}
		if ev.Clock.AppIO != st.AppIO || ev.Clock.GCIO != st.GCIO {
			t.Errorf("collection %d: clock %+v disagrees with its cumulative I/O", seen, ev.Clock)
		}
		// fixed(4): the first collection is due at overwrite 4, each later
		// one 4 overwrites after the last.
		if ev.Interval != 4 || ev.Clock.Overwrites != uint64(4*seen) {
			t.Errorf("collection %d: interval %d at overwrite %d, want 4 at %d", seen, ev.Interval, ev.Clock.Overwrites, 4*seen)
		}
		if ev.DBBytes != st.DBBytes || ev.Phase != "serving" {
			t.Errorf("collection %d: event %+v, stats %+v", seen, ev, st)
		}
	}
	if seen < 2 {
		t.Fatalf("only %d collections at fixed(4)", seen)
	}

	eng.BeginDrain()
	eng.CloseQueue()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
