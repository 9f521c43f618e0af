package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"odbgc/internal/core"
	"odbgc/internal/gc"
	"odbgc/internal/objstore"
	"odbgc/internal/server"
	"odbgc/internal/storage"
	"odbgc/internal/trace"
)

// Direct drives: the workload's own inputs replayed straight into one layer
// through its public functions, for the *_ns rows a span per call would drown
// in clock reads. Each call is timed on its own and the cost of reading the
// clock twice (clockOverheadNs) is taken off the mean.

// clockOverheadNs is the median cost of a back-to-back time.Now/time.Since
// pair, which every per-call timing below includes once.
func clockOverheadNs() float64 {
	const n = 20001
	d := make([]float64, n)
	for i := range d {
		t0 := time.Now()
		d[i] = float64(time.Since(t0))
	}
	return median(d)
}

// timer accumulates per-call timings of one operation.
type timer struct {
	ns int64
	n  int64
}

func (t *timer) add(d time.Duration) { t.ns += int64(d); t.n++ }

func (t *timer) meanNs(overheadNs float64) float64 {
	if t.n == 0 {
		return 0
	}
	return math.Max(0, float64(t.ns)/float64(t.n)-overheadNs)
}

// goHeapBytes is HeapAlloc after two forced collections.
func goHeapBytes() float64 {
	return liveHeapMiB() * (1 << 20)
}

// directReplay drives the trace's events into objstore.Store, storage.Manager
// and gc.Heap (policy never: no collection runs) and fills their rows. It
// returns gc.Heap's mean time per application event, which the caller takes
// off Simulator.Step's to get the simulator's own share.
func directReplay(tr *trace.Trace, res *result, clk float64) (float64, error) {
	// objstore.
	before := goHeapBytes()
	store := objstore.NewStore()
	var create, get, setSlot timer
	for i := range tr.Events {
		e := &tr.Events[i]
		switch e.Kind {
		case trace.KindCreate:
			t0 := time.Now()
			_, err := store.CreateWithOID(e.OID, e.Class, e.Size, e.Slots)
			create.add(time.Since(t0))
			if err != nil {
				return 0, fmt.Errorf("objstore drive: %w", err)
			}
		case trace.KindAccess, trace.KindUpdate:
			t0 := time.Now()
			o := store.Get(e.OID)
			get.add(time.Since(t0))
			if o == nil {
				return 0, fmt.Errorf("objstore drive: %v absent", e.OID)
			}
		case trace.KindOverwrite:
			t0 := time.Now()
			_, err := store.SetSlot(e.OID, e.Slot, e.New)
			setSlot.add(time.Since(t0))
			if err != nil {
				return 0, fmt.Errorf("objstore drive: %w", err)
			}
		}
	}
	res.set("objstore.create_ns", create.meanNs(clk), int(create.n))
	res.set("objstore.get_ns", get.meanNs(clk), int(get.n))
	res.set("objstore.set_slot_ns", setSlot.meanNs(clk), int(setSlot.n))
	res.set("objstore.heap_bytes_per_object", ratio(goHeapBytes()-before, float64(store.Len())), store.Len())
	runtime.KeepAlive(store)

	// storage.Manager.
	mgr, err := storage.NewManager(storage.DefaultConfig())
	if err != nil {
		return 0, err
	}
	var alloc, touch timer
	for i := range tr.Events {
		e := &tr.Events[i]
		switch e.Kind {
		case trace.KindCreate:
			t0 := time.Now()
			_, err = mgr.Allocate(e.OID, e.Size)
			alloc.add(time.Since(t0))
		case trace.KindAccess:
			t0 := time.Now()
			err = mgr.Touch(e.OID, false)
			touch.add(time.Since(t0))
		case trace.KindUpdate, trace.KindOverwrite:
			t0 := time.Now()
			err = mgr.Touch(e.OID, true)
			touch.add(time.Since(t0))
		}
		if err != nil {
			return 0, fmt.Errorf("storage drive: %w", err)
		}
	}
	res.set("storage.allocate_ns", alloc.meanNs(clk), int(alloc.n))
	res.set("storage.touch_ns", touch.meanNs(clk), int(touch.n))

	// gc.Heap.
	mgr, err = storage.NewManager(storage.DefaultConfig())
	if err != nil {
		return 0, err
	}
	heap := gc.NewHeap(objstore.NewStore(), mgr)
	var hCreate, hAccess, hUpdate, hOverwrite, hDead timer
	var dead []objstore.OID
	for i := range tr.Events {
		e := &tr.Events[i]
		switch e.Kind {
		case trace.KindCreate:
			t0 := time.Now()
			err = heap.Create(e.OID, e.Class, e.Size, e.Slots)
			hCreate.add(time.Since(t0))
		case trace.KindAccess:
			t0 := time.Now()
			err = heap.Access(e.OID)
			hAccess.add(time.Since(t0))
		case trace.KindUpdate:
			t0 := time.Now()
			err = heap.Update(e.OID)
			hUpdate.add(time.Since(t0))
		case trace.KindOverwrite:
			t0 := time.Now()
			err = heap.Overwrite(e.OID, e.Slot, e.Old, e.New, e.Init)
			hOverwrite.add(time.Since(t0))
			if err == nil && len(e.Dead) > 0 {
				dead = dead[:0]
				for _, d := range e.Dead {
					dead = append(dead, d.OID)
				}
				t0 = time.Now()
				err = heap.RecordOracleDead(dead)
				hDead.add(time.Since(t0))
			}
		case trace.KindRoot:
			if e.Size == 1 {
				err = heap.AddRoot(e.OID)
			} else {
				err = heap.RemoveRoot(e.OID)
			}
		}
		if err != nil {
			return 0, fmt.Errorf("gc.Heap drive, event %d: %w", i, err)
		}
	}
	res.set("gc.create_ns", hCreate.meanNs(clk), int(hCreate.n))
	res.set("gc.access_ns", hAccess.meanNs(clk), int(hAccess.n))
	res.set("gc.update_ns", hUpdate.meanNs(clk), int(hUpdate.n))
	res.set("gc.overwrite_ns", hOverwrite.meanNs(clk), int(hOverwrite.n))
	res.set("gc.oracle_dead_ns", hDead.meanNs(clk), int(hDead.n))
	app := timer{
		ns: hCreate.ns + hAccess.ns + hUpdate.ns + hOverwrite.ns + hDead.ns,
		n:  hCreate.n + hAccess.n + hUpdate.n + hOverwrite.n,
	}
	return app.meanNs(clk), nil
}

var policySink bool

// directPolicy times RatePolicy.ShouldCollect, the probe the simulator and
// the engine make once per event or request, on a SAIO policy that is not due.
func directPolicy(res *result) error {
	pol, err := core.NewSAIO(core.SAIOConfig{Frac: serveShare, InitialInterval: 1 << 40})
	if err != nil {
		return err
	}
	const n = 2_000_000
	var p core.RatePolicy = pol
	t0 := time.Now()
	for i := uint64(0); i < n; i++ {
		policySink = p.ShouldCollect(core.Clock{AppIO: i, Overwrites: i}) || policySink
	}
	res.set("core.should_collect_ns", float64(time.Since(t0))/n, n)
	return nil
}

// exchange is one request with its response, kept by the traced client for
// the frame-codec drive.
type exchange struct {
	req  server.Request
	resp server.Response
}

// directFrames encodes and decodes the workload's own frames on a memory
// buffer: the codec's cost with no socket under it.
func directFrames(xs []exchange, res *result) error {
	if len(xs) == 0 {
		return nil
	}
	var buf bytes.Buffer
	t0 := time.Now()
	for i := range xs {
		if err := server.WriteFrame(&buf, xs[i].req); err != nil {
			return err
		}
		if err := server.WriteFrame(&buf, xs[i].resp); err != nil {
			return err
		}
	}
	enc := time.Since(t0)
	frames := 2 * len(xs)
	res.set("server.frame_bytes_per_req", float64(buf.Len())/float64(len(xs)), len(xs))
	rd := bytes.NewReader(buf.Bytes())
	t0 = time.Now()
	for range xs {
		var req server.Request
		var resp server.Response
		if err := server.ReadFrame(rd, &req); err != nil {
			return err
		}
		if err := server.ReadFrame(rd, &resp); err != nil {
			return err
		}
	}
	dec := time.Since(t0)
	res.set("server.frame_encode_ns", float64(enc)/float64(frames), frames)
	res.set("server.frame_decode_ns", float64(dec)/float64(frames), frames)
	return nil
}

// directSubmit drives a seeded request stream through Engine.Submit in
// process: the round trip with the socket, the frame codec and the session
// goroutine taken away. The program is built like the workload's (durable
// backend and armed stall included).
func directSubmit(o programOpts, seed int64, n int, res *result) error {
	prog, err := startProgram(o)
	if err != nil {
		return err
	}
	defer func() {
		_ = prog.stop()
		_ = prog.seal()
	}()
	m := newClientModel(seed)
	submit := func(req server.Request) (server.Response, error) {
		resp := prog.eng.Submit(deadlineCtx{context.Background(), time.Now().Add(requestTimeout)}, req, nil)
		if resp.Status != server.StatusOK {
			return resp, fmt.Errorf("submit %s: %s: %s", req.Op, resp.Status, resp.Error)
		}
		return resp, nil
	}
	if err := m.preload(submit); err != nil {
		return err
	}
	if prog.fs != nil {
		prog.fs.armed.Store(true)
	}
	us := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		req := m.next()
		t0 := time.Now()
		resp, err := submit(req)
		dt := time.Since(t0)
		if err == nil {
			err = m.ack(req, resp)
		}
		if err != nil {
			return err
		}
		us = append(us, float64(dt)/1e3)
	}
	res.set("server.submit_p50_us", median(us), len(us))
	return nil
}
