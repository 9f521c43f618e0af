package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"odbgc/internal/core"
	"odbgc/internal/gc"
	"odbgc/internal/objstore"
	"odbgc/internal/obs"
	"odbgc/internal/obs/span"
	"odbgc/internal/server"
	"odbgc/internal/storage"
	"odbgc/internal/storage/disk"
)

const (
	serveClients   = 2 // = nproc on the sizing box; the closed loop's client count
	serveShare     = 0.10
	serveWarmup    = 2 * time.Second
	requestTimeout = 5 * time.Second
	// schedStall is how long a round trip may spend outside the engine (round
	// trip minus the queue and service times the response reports) before it
	// counts as a scheduler stall and is left out of the serve metrics. An
	// ordinary request spends 30 us there. With two clients on two processors
	// about one request in 200 spends one 4 ms kernel scheduler tick there
	// while the engine answers the other client a hundred times: the runtime's
	// network poller thread is the third runnable thread on two processors,
	// and this kernel (250 Hz, no preemption) runs it at the next tick. Those
	// round trips are a quarter of serve-mem's client time, come and go with
	// the host's load, and say nothing about the program (README, "Sizing
	// evidence"); their share is in the notes.
	schedStall = 2 * time.Millisecond
	// tracedRequestsPerSecond sizes the traced pass: one client, a fixed
	// request count (never a duration), so every count repeats exactly.
	tracedRequestsPerSecond = 4000
)

// Client phases.
const (
	phaseWarm int32 = iota
	phaseWindow
	phaseStop
)

// program is odbgcd in process: heap, engine and TCP front end built the way
// cmd/odbgcd builds them (SAIO 10 %, UPDATEDPOINTER, default geometry, queue
// 128, metrics on, 512-span flight recorder), optionally over a disk.Store.
// The policy, the selection and the backend are always wrapped: the wrappers
// clock collections and checkpoints in every pass and record spans in the
// traced ones.
type program struct {
	heap    *gc.Heap
	eng     *server.Engine
	srv     *server.Server
	addr    string
	store   *disk.Store
	fs      *deviceFS
	dataDir string

	pc *pauseClock
	tb *tracedBackend // what the heap and the engine log to; nil without a data directory

	cancel context.CancelFunc
	drain  chan struct{}
	done   chan error
}

// programOpts selects what a pass adds to or takes from the odbgcd defaults.
type programOpts struct {
	dataDir    string    // non-empty attaches the durable backend there
	tc         *traceCtx // non-nil wraps policy, selection, backend and FS
	noRecorder bool      // drop the flight recorder (span-overhead pass)
}

func startProgram(o programOpts) (*program, error) {
	p := &program{dataDir: o.dataDir, drain: make(chan struct{}), done: make(chan error, 1)}
	mgr, err := storage.NewManager(storage.DefaultConfig())
	if err != nil {
		return nil, err
	}
	p.heap = gc.NewHeap(objstore.NewStore(), mgr)
	if o.dataDir != "" {
		p.fs = newDeviceFS(o.dataDir, o.tc)
		st, _, err := disk.Open(disk.Options{FS: p.fs, Fsync: disk.FsyncAlways})
		if err != nil {
			return nil, err
		}
		if err := server.RebuildHeap(p.heap, st); err != nil {
			_ = st.Close()
			return nil, err
		}
		p.store = st
		p.tb = &tracedBackend{inner: st, tc: o.tc}
		p.heap.SetDurable(p.tb)
	}
	var pol core.RatePolicy
	pol, err = core.NewSAIO(core.SAIOConfig{Frac: serveShare})
	if err != nil {
		return nil, err
	}
	sel, err := gc.NewSelectionPolicy("updated-pointer", 1)
	if err != nil {
		return nil, err
	}
	p.pc = &pauseClock{tc: o.tc, keepStats: o.tc != nil}
	pol, sel = wrapPolicy(pol, p.pc), wrapSelection(sel, p.pc)
	live := obs.NewLive()
	m := server.NewMetrics(live.Registry())
	var rec *span.Recorder
	if !o.noRecorder {
		rec = span.NewRecorder(span.Config{Capacity: 512})
	}
	cfg := server.EngineConfig{
		Policy: pol, Selection: sel, QueueDepth: 128, Metrics: m,
		Observer: obs.NewMulti(live), Recorder: rec, CheckpointEvery: 1024,
	}
	if p.tb != nil {
		cfg.Durable = p.tb
	}
	if p.eng, err = server.NewEngine(p.heap, cfg); err != nil {
		return nil, err
	}
	if p.srv, err = server.New(server.Config{Addr: "127.0.0.1:0", RequestTimeout: requestTimeout}, p.eng, m); err != nil {
		return nil, err
	}
	if p.addr, err = p.srv.Listen(); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	p.cancel = cancel
	go func() { p.done <- p.srv.Serve(ctx, p.drain) }()
	return p, nil
}

// stop drains the server and waits for the engine loop to exit; afterwards the
// heap, the store and the FS are quiescent and safe to read.
func (p *program) stop() error {
	close(p.drain)
	select {
	case err := <-p.done:
		p.cancel()
		return err
	case <-time.After(10 * time.Second):
		p.cancel()
		<-p.done
		return fmt.Errorf("server did not drain within 10s")
	}
}

// seal ends the durable store the way odbgcd's drain path does and removes the
// data directory.
func (p *program) seal() error {
	if p.store == nil {
		return nil
	}
	err := p.store.Commit()
	if err == nil {
		err = p.store.Checkpoint()
	}
	if cerr := p.store.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(p.dataDir); err == nil {
		err = rerr
	}
	return err
}

// deadlineCtx is a context that only carries a deadline: server.Client.Do
// reads nothing else, and building a timer-backed context per request would
// add the harness's own allocations to every round trip.
type deadlineCtx struct {
	context.Context
	at time.Time
}

func (c deadlineCtx) Deadline() (time.Time, bool) { return c.at, true }

// client is one closed-loop session: it sends its next request only after the
// previous one was answered.
type client struct {
	cli   *server.Client
	model *clientModel
	tc    *traceCtx // traced single-client pass only

	sent, failed int
	shed         int // refused by admission control, part of failed
	firstErr     error

	// Window samples, preallocated by reserve so recording never grows them
	// past their fixed size; a full buffer stops recording, not the load.
	rttNs, queueNs, serviceNs []uint32
	okInWindow                int
	keep                      []exchange // first window exchanges, up to cap (traced pass)
}

func dialClient(addr string, seed int64, tc *traceCtx) (*client, error) {
	cli, err := server.Dial(addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &client{cli: cli, model: newClientModel(seed), tc: tc}, nil
}

// reserve preallocates the sample buffers.
func (c *client) reserve(n int) {
	c.rttNs = make([]uint32, 0, n)
	c.queueNs = make([]uint32, 0, n)
	c.serviceNs = make([]uint32, 0, n)
}

func (c *client) noteFailure(err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// roundTrip sends one request; anything but an OK response is an error.
func (c *client) roundTrip(req server.Request) (server.Response, time.Duration, error) {
	c.sent++
	var h int32
	if c.tc != nil {
		h = c.tc.log.begin("server.rtt", 0, uint64(c.sent))
		c.tc.setOp(h, uint64(c.sent))
	}
	t0 := time.Now()
	resp, err := c.cli.Do(deadlineCtx{context.Background(), t0.Add(requestTimeout)}, req)
	dt := time.Since(t0)
	if c.tc != nil {
		c.tc.log.end(h)
	}
	if err != nil {
		return resp, dt, err
	}
	if resp.Status == server.StatusShed {
		c.shed++
	}
	if resp.Status != server.StatusOK {
		return resp, dt, fmt.Errorf("%s %d: status %s: %s", req.Op, req.OID, resp.Status, resp.Error)
	}
	return resp, dt, nil
}

// do is roundTrip for set-up and verification traffic.
func (c *client) do(req server.Request) (server.Response, error) {
	resp, _, err := c.roundTrip(req)
	if err != nil {
		c.noteFailure(err)
	}
	return resp, err
}

// run drives the seeded stream until phase says stop or, when limit is
// positive, for exactly limit requests. Requests that start inside the window
// phase are sampled.
func (c *client) run(phase *atomic.Int32, limit int) {
	for n := 0; limit <= 0 || n < limit; n++ {
		ph := phase.Load()
		if ph == phaseStop {
			return
		}
		req := c.model.next()
		resp, dt, err := c.roundTrip(req)
		if err == nil {
			err = c.model.ack(req, resp)
		}
		if err != nil {
			c.noteFailure(err)
			if resp.Status == "" { // transport failure: the session is gone
				return
			}
			continue
		}
		if ph == phaseWindow {
			c.okInWindow++
			if len(c.rttNs) < cap(c.rttNs) {
				c.rttNs = append(c.rttNs, clampNs(int64(dt)))
				c.queueNs = append(c.queueNs, clampNs(resp.QueueUs*1000))
				c.serviceNs = append(c.serviceNs, clampNs(resp.ServiceUs*1000))
			}
			if len(c.keep) < cap(c.keep) {
				c.keep = append(c.keep, exchange{req, resp})
			}
		}
	}
}

// clampNs stores a duration in the sample buffers' 32 bits (4.29 s; the
// request timeout is the only thing longer).
func clampNs(ns int64) uint32 {
	return uint32(min(max(ns, 0), math.MaxUint32))
}

// verify reads back every object the model says is reachable; the collector
// reclaiming any of them fails the access.
func (c *client) verify() {
	for _, oid := range c.model.liveObjects() {
		_, _ = c.do(server.Request{Op: server.OpAccess, OID: oid})
	}
}

// serveSetup is one complete set-up: program up, clients connected, data
// preloaded.
type serveSetup struct {
	prog    *program
	clients []*client
}

func setUpServe(o programOpts, nClients int, seed int64) (*serveSetup, error) {
	prog, err := startProgram(o)
	if err != nil {
		return nil, err
	}
	s := &serveSetup{prog: prog}
	var wg sync.WaitGroup
	errs := make([]error, nClients)
	for i := 0; i < nClients; i++ {
		c, err := dialClient(prog.addr, seed*1000+int64(i), o.tc)
		if err != nil {
			s.tearDown()
			return nil, err
		}
		s.clients = append(s.clients, c)
	}
	for i, c := range s.clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			errs[i] = c.model.preload(c.do)
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			s.tearDown()
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	return s, nil
}

// drive runs every client's closed loop in phase ph for d and returns, with
// how long it took, once each client has had its last request answered.
func (s *serveSetup) drive(ph int32, d time.Duration) time.Duration {
	var phase atomic.Int32
	phase.Store(ph)
	var wg sync.WaitGroup
	t0 := time.Now()
	for _, c := range s.clients {
		wg.Add(1)
		go func(c *client) { defer wg.Done(); c.run(&phase, 0) }(c)
	}
	time.Sleep(d)
	phase.Store(phaseStop)
	wg.Wait()
	return time.Since(t0)
}

// tearDown discards a set-up.
func (s *serveSetup) tearDown() {
	for _, c := range s.clients {
		_ = c.cli.Close()
	}
	_ = s.prog.stop()
	_ = s.prog.seal()
}

// statsVia fetches OpStats through c.
func statsVia(c *client) (*server.Stats, error) {
	resp, err := c.do(server.Request{Op: server.OpStats})
	if err != nil {
		return nil, err
	}
	if resp.Stats == nil {
		return nil, fmt.Errorf("stats response without stats")
	}
	return resp.Stats, nil
}

// runServe is the serve-mem and serve-durable workload.
func runServe(rc runConfig, durable bool) (*result, error) {
	res := newResult(rc)
	dirFor := func(tag string) string {
		if !durable {
			return ""
		}
		return filepath.Join(rc.outDir, "data", fmt.Sprintf("%s-%d-%s", rc.workload, os.Getpid(), tag))
	}
	if rc.traced {
		return res, serveTraced(rc, res, dirFor)
	}

	// Set-up, setupRepeats times; the last one is kept. Set-up is processor-
	// bound (the stall is not armed), so it is calibrated like replay's.
	cal := newCalibrated()
	var setupS, rawSetupS []float64
	var su *serveSetup
	for i := 0; i < setupRepeats; i++ {
		if su != nil {
			su.tearDown()
		}
		wall, factor, err := cal.sample(func() (err error) {
			su, err = setUpServe(programOpts{dataDir: dirFor(fmt.Sprint("s", i))}, serveClients, rc.seed)
			return err
		})
		if err != nil {
			return res, err
		}
		rawSetupS = append(rawSetupS, wall.Seconds())
		setupS = append(setupS, wall.Seconds()*factor)
	}
	res.set("setup_s", median(setupS), len(setupS))
	res.note("raw_setup_s", median(rawSetupS))
	res.note("machine_slowdown", cal.slowdown())
	prog := su.prog

	// Warm-up, then the measured window. Buffers hold four times the rate seen
	// while sizing.
	for _, c := range su.clients {
		c.reserve(int(rc.seconds.Seconds()*60000) + 1000)
	}
	if prog.fs != nil {
		prog.fs.armed.Store(true)
	}
	su.drive(phaseWarm, serveWarmup)
	// serve-mem is processor-bound from end to end and follows the machine's
	// speed as replay does, so what its window measures is calibrated: by
	// probes on either side of the window, a quarter of what a sample of the
	// window's length would get each, so the clients are never interrupted.
	// serve-durable's round trip is mostly the modelled device, and a third
	// of its checkpoint: wall time, which repeats better there.
	factor := 1.0
	if !durable {
		cal.probeFor(rc.seconds / 4)
	}
	before := cal.last
	t0 := time.Now()
	window := su.drive(phaseWindow, rc.seconds)
	if !durable {
		cal.probeFor(rc.seconds / 4)
		factor = cal.factor(before)
	}
	if prog.fs != nil {
		prog.fs.armed.Store(false)
	}

	// Round trips of the window, scheduler stalls apart (schedStall).
	var rtt []float64
	var stalledUs float64
	ok, stalled := 0, 0
	for _, c := range su.clients {
		ok += c.okInWindow
		for i, ns := range c.rttNs {
			if int64(ns)-int64(c.queueNs[i])-int64(c.serviceNs[i]) > int64(schedStall) {
				stalled++
				stalledUs += float64(ns) / 1e3
				continue
			}
			rtt = append(rtt, float64(ns)/1e3)
		}
	}
	if len(rtt) == 0 {
		return res, fmt.Errorf("no request completed inside the window")
	}
	sort.Float64s(rtt)
	tail := pickTail(len(rtt))
	res.set("ops_per_s", serveClients*1e6/(mean(rtt)*factor), len(rtt))
	res.set("lat_p50_us", quantile(rtt, 0.5)*factor, len(rtt))
	res.note("raw_lat_p50_us", quantile(rtt, 0.5))
	res.note("rtt_tail_us", quantile(rtt, tail))
	res.note("rtt_tail_percentile", tail*100)
	res.note("rtt_p99_us", quantile(rtt, 0.99))
	res.note("raw_ops_per_s", float64(ok)/window.Seconds())
	res.note("sched_stall_frac", ratio(float64(stalled), float64(stalled+len(rtt))))
	res.note("sched_stall_time_share", ratio(stalledUs, stalledUs+mean(rtt)*float64(len(rtt))))
	res.note("window_s", window.Seconds())
	res.note("warmup_s", serveWarmup.Seconds())
	res.note("clients", serveClients)

	// Output checks, then the heap reading with the program still whole.
	stats := verifyServe(res, su)
	if stats != nil {
		if stats.Collections == 0 {
			res.fail("the collector never ran")
		}
		share := 100 * ratio(float64(stats.GCIO), float64(stats.AppIO+stats.GCIO))
		res.note("gc_io_share_pct", share)
		res.note("collections", float64(stats.Collections))
	}
	for _, c := range su.clients {
		_ = c.cli.Close()
		c.reserve(0)
	}
	rtt = nil
	if err := prog.stop(); err != nil {
		res.fail("drain: %v", err)
	}
	// The engine loop has exited, so what the wrappers clocked is safe to
	// read: the stalls that began inside the window.
	stalls, began := prog.pc.pausesNs, prog.pc.startsNs
	if durable {
		stalls, began = prog.tb.checkpointNs, prog.tb.checkpointStartsNs
	}
	from := int64(t0.Sub(benchEpoch))
	var stallUs []float64
	for i, at := range began {
		if at >= from && at < from+int64(window) {
			stallUs = append(stallUs, float64(stalls[i])/1e3)
		}
	}
	if len(stallUs) == 0 {
		res.fail("no collection or checkpoint began inside the window")
	}
	res.set("stall_us", median(stallUs)*factor, len(stallUs))
	res.note("raw_stall_us", median(stallUs))
	res.set("live_heap_mb", liveHeapMiB(), 1)
	runtime.KeepAlive(prog)
	if durable {
		verifyDurable(res, su, dirFor("crash"))
	}
	if err := prog.seal(); err != nil {
		res.fail("seal: %v", err)
	}
	for _, c := range su.clients {
		res.Attempted += c.sent
		res.Failed += c.failed
		if c.firstErr != nil {
			res.addError(c.firstErr.Error())
		}
	}
	return res, nil
}

// verifyServe ends a serve pass: every client reads back its reachable
// objects, then the server's own object and byte counts are compared against
// what the clients created less what the collector reclaimed. It returns the
// final stats, nil when they could not be fetched.
func verifyServe(res *result, su *serveSetup) *server.Stats {
	var wg sync.WaitGroup
	for _, c := range su.clients {
		wg.Add(1)
		go func(c *client) { defer wg.Done(); c.verify() }(c)
	}
	wg.Wait()
	stats, err := statsVia(su.clients[0])
	if err != nil {
		res.fail("stats: %v", err)
		return nil
	}
	created, createdBytes, displaced, live := 0, 0, 0, 0
	for _, c := range su.clients {
		created += c.model.created
		createdBytes += c.model.createdBytes
		displaced += c.model.displaced
		live += len(c.model.liveObjects())
	}
	// Only leaves ever become garbage, so reclaimed bytes count objects.
	reclaimed := int(stats.ReclaimedBytes) / leafBytes
	if int(stats.ReclaimedBytes)%leafBytes != 0 {
		res.fail("reclaimed %d bytes is not a whole number of %d-byte leaves", stats.ReclaimedBytes, leafBytes)
	}
	if reclaimed > displaced {
		res.fail("collector reclaimed %d objects but only %d were made garbage", reclaimed, displaced)
	}
	if stats.Objects != created-reclaimed {
		res.fail("server holds %d objects, want %d created - %d reclaimed", stats.Objects, created, reclaimed)
	}
	if stats.DBBytes != createdBytes-int(stats.ReclaimedBytes) {
		res.fail("server holds %d bytes, want %d created - %d reclaimed", stats.DBBytes, createdBytes, stats.ReclaimedBytes)
	}
	if garbage := stats.Objects - live; garbage != displaced-reclaimed {
		res.fail("server holds %d objects beyond the live set, want %d unreclaimed garbage", garbage, displaced-reclaimed)
	}
	return stats
}

// verifyDurable checks durability the way a power cut would: it cuts a crash
// image holding only what each file had at its last Sync, recovers from it,
// and looks for every acknowledged create, pointer store and unroot. The
// program must be stopped (quiescent) but not yet sealed.
func verifyDurable(res *result, su *serveSetup, crashDir string) {
	defer os.RemoveAll(crashDir)
	if err := su.prog.fs.crashImage(crashDir); err != nil {
		res.fail("crash image: %v", err)
		return
	}
	st, _, err := disk.Open(disk.Options{FS: disk.OSFS{Dir: crashDir}})
	if err != nil {
		res.fail("recovering the crash image: %v", err)
		return
	}
	defer st.Close()
	type rec struct {
		slots []objstore.OID
		root  bool
	}
	got := make(map[objstore.OID]rec, st.NumObjects())
	st.ForEach(func(o disk.ObjectState) {
		got[o.OID] = rec{slots: append([]objstore.OID(nil), o.Slots...), root: o.Root}
	})
	for _, c := range su.clients {
		m := c.model
		for h, hub := range m.hubs {
			r, ok := got[objstore.OID(hub)]
			if !ok || !r.root || len(r.slots) != slotsPerHub {
				res.fail("crash image: hub %d missing, unrooted or misshapen", hub)
				continue
			}
			for s, leaf := range m.leaf[h] {
				if r.slots[s] != objstore.OID(leaf) {
					res.fail("crash image: hub %d slot %d holds %d, acknowledged %d", hub, s, r.slots[s], leaf)
				}
				lr, ok := got[objstore.OID(leaf)]
				if !ok {
					res.fail("crash image: acknowledged leaf %d is gone", leaf)
				} else if wantRoot := leaf == m.newLeaf; lr.root != wantRoot {
					res.fail("crash image: leaf %d rooted=%v, acknowledged %v", leaf, lr.root, wantRoot)
				}
			}
		}
		if m.newLeaf != 0 && m.step == 1 {
			if r, ok := got[objstore.OID(m.newLeaf)]; !ok || !r.root {
				res.fail("crash image: acknowledged create %d is gone or unrooted", m.newLeaf)
			}
		}
	}
}

// liveHeapMiB is Go's HeapAlloc after two forced collections (the second
// frees what finalizers of the first released).
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
