package server

import (
	"strings"
	"testing"

	"odbgc/internal/core"
	"odbgc/internal/gc"
	"odbgc/internal/objstore"
	"odbgc/internal/simerr"
	"odbgc/internal/storage"
)

// TestApplyAllocatesNothing: an access, an update and a pointer store step
// through the loop on tables and lists the heap already has. The set flips
// one slot between two targets, so every call forgets one reference and
// records another.
func TestApplyAllocatesNothing(t *testing.T) {
	eng, _ := benchEngine(t)
	apply := func(req Request) {
		if resp := eng.apply(req); resp.Status != StatusOK {
			t.Fatalf("%+v answered %+v", req, resp)
		}
	}
	var oids [3]uint64
	for i := range oids {
		resp := eng.apply(Request{Op: OpCreate, Size: 100, Slots: 2})
		if resp.Status != StatusOK {
			t.Fatalf("create answered %+v", resp)
		}
		oids[i] = resp.OID
	}
	i := 0
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"access", func() { apply(Request{Op: OpAccess, OID: oids[0]}) }},
		{"update", func() { apply(Request{Op: OpUpdate, OID: oids[0]}) }},
		{"set", func() {
			apply(Request{Op: OpSet, OID: oids[0], Slot: 1, Dst: oids[1+i%2]})
			i++
		}},
	} {
		if n := testing.AllocsPerRun(200, c.fn); n != 0 {
			t.Errorf("%s: %v allocations per request, want 0", c.name, n)
		}
	}
}

// TestAbsentObjectIsOtherError: a client's access, update or set of an OID
// that does not exist is the client's mistake, not a damaged trace. The
// heap's refusal wraps objstore.ErrAbsent, which simerr does not classify,
// and the engine refuses a set before the heap sees it, so the server counts
// all three as "other".
func TestAbsentObjectIsOtherError(t *testing.T) {
	eng, _ := benchEngine(t)
	for _, op := range []string{OpAccess, OpUpdate, OpSet} {
		resp := eng.apply(Request{ID: 1, Op: op, OID: 7})
		if resp.Status != StatusError || !strings.Contains(resp.Error, "absent") {
			t.Errorf("%s of an absent object answered %+v, want an error naming it absent", op, resp)
		}
	}
	errs := eng.cfg.Metrics.errors
	if got := errs[simerr.ClassOther].Value(); got != 3 {
		t.Errorf("odbgc_server_errors_other_total = %v, want 3", got)
	}
	if got := errs[simerr.ClassCorruptTrace].Value(); got != 0 {
		t.Errorf("odbgc_server_errors_corrupt_trace_total = %v, want 0", got)
	}
}

// TestGCPauseObservedWithoutRecorder: every collection is an
// odbgc_server_gc_pause_ms sample whether or not a flight recorder is
// attached. Churn under fixed(4) with a nil recorder, as odbgcd
// -trace-buffer 0 runs, must record exactly one sample per collection.
func TestGCPauseObservedWithoutRecorder(t *testing.T) {
	mgr, err := storage.NewManager(storage.Config{PageSize: 1024, PagesPerPartition: 4, BufferPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	pol, err := core.NewFixedRate(4)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(gc.NewHeap(objstore.NewStore(), mgr), EngineConfig{Policy: pol, Selection: gc.UpdatedPointer{}})
	if err != nil {
		t.Fatal(err)
	}
	do := func(req Request) uint64 {
		t.Helper()
		c := &call{req: req, done: make(chan Response, 1)}
		eng.process(c)
		resp := <-c.done
		if resp.Status != StatusOK {
			t.Fatalf("%s answered %+v", req.Op, resp)
		}
		return resp.OID
	}
	hub, prev := do(Request{Op: OpCreate, Size: 256, Slots: 1}), uint64(0)
	for i := 0; i < 40; i++ {
		child := do(Request{Op: OpCreate, Size: 128})
		do(Request{Op: OpSet, OID: hub, Slot: 0, Dst: child})
		if prev != 0 {
			do(Request{Op: OpUnroot, OID: prev})
		}
		prev = child
	}
	collections := eng.Snapshot().Collections
	if collections == 0 {
		t.Fatal("churn at fixed(4) ran no collection")
	}
	if n, _ := eng.cfg.Metrics.gcPause.Value(); uint64(n) != uint64(collections) {
		t.Errorf("odbgc_server_gc_pause_ms holds %d samples for %d collections", n, collections)
	}
}
