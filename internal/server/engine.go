package server

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"odbgc/internal/core"
	"odbgc/internal/gc"
	"odbgc/internal/objstore"
	"odbgc/internal/obs"
	"odbgc/internal/obs/span"
	"odbgc/internal/sim"
	"odbgc/internal/simerr"
	"odbgc/internal/storage"
	"odbgc/internal/storage/disk"
	"odbgc/internal/trace"
)

// servingPhase is the phase a serving run's collections and heartbeats name.
const servingPhase = "serving"

// EngineConfig parameterizes the request engine.
type EngineConfig struct {
	// Policy decides when the online collector runs; consulted after each
	// request that leaves the heap collect-safe (sim.Loop.Due). Required.
	Policy core.RatePolicy
	// Selection picks the partition each collection processes. Required.
	Selection gc.SelectionPolicy
	// QueueDepth bounds the admission queue: requests beyond it are shed
	// immediately. Defaults to 128.
	QueueDepth int
	// ServiceDelay is artificial per-request service time, the knob that
	// makes overload reproducible in tests and demos: with a delay of d,
	// sustained arrival above QueueDepth/d keeps the queue full. Zero means
	// requests cost only their real work.
	ServiceDelay time.Duration
	// Breaker, when set, is observed after every turn of the control loop so
	// its state reaches /metrics. It should be the same value wired into the
	// Policy's estimator.
	Breaker *Breaker
	// Metrics is the serving-path metrics sink; nil gets one on a private
	// registry.
	Metrics *Metrics
	// Observer receives the run's RunStart from NewEngine, then
	// Decision/Collection events as the online GC runs and a Progress
	// heartbeat every 1 000 admitted requests (nil for none). Step carries
	// the admitted-request count.
	Observer obs.Observer
	// Recorder is the span flight recorder (nil disables tracing; the nil
	// fast path costs one pointer test per request). A collection a request
	// triggers emits a GC span that is the child of the request's span.
	Recorder *span.Recorder
	// Durable, when non-nil, is the write-ahead-logging backend the heap
	// records every mutation to; NewEngine attaches it to the heap. The
	// engine commits one batch per request — before the response goes out,
	// so an acknowledged write is never lost to a crash — and one batch per
	// collection (the reclaim record).
	Durable storage.Backend
	// CheckpointEvery bounds WAL replay work after a crash: the engine
	// checkpoints the durable store every N committed batches (a request
	// or collection that logged nothing commits no batch). Zero means the
	// default of 1024; negative disables periodic checkpoints (drain still
	// takes a final one).
	CheckpointEvery int
}

func (c *EngineConfig) validate() error {
	if c.Policy == nil {
		return fmt.Errorf("server: engine requires a rate policy")
	}
	if c.Selection == nil {
		return fmt.Errorf("server: engine requires a selection policy")
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 128
	}
	if c.QueueDepth < 0 {
		return fmt.Errorf("server: queue depth %d must be positive", c.QueueDepth)
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 1024
	}
	if c.Metrics == nil {
		c.Metrics = NewMetrics(obs.NewRegistry())
	}
	return nil
}

// call is one admitted request in flight: the request, its queue deadline,
// and the buffered channel its response lands on (buffered so the engine
// never blocks on a waiter that gave up). The engine reads a call it was
// handed until it has sent on done, so a waiter may fill the call in again
// only after receiving from done.
type call struct {
	req      Request
	deadline time.Time // zero means none
	done     chan Response
	// spanID is the submitting session's span ID (0 when tracing is off)
	// and enq its enqueue tick. Only the ID crosses goroutines — the span
	// itself stays owned by the session, so an abandoned waiter can finish
	// and recycle it without racing the engine.
	spanID uint64
	enq    int64
}

// Engine owns the heap. Exactly one goroutine (Run) touches gc.Heap,
// objstore.Store, the policy, and the estimator, so none of them need
// locks and the GC decision sequence stays deterministic for a given
// request order. Sessions talk to it through Submit, which enforces
// admission control: the queue is the only buffer, and it is bounded.
type Engine struct {
	cfg   EngineConfig
	heap  *gc.Heap
	loop  sim.Loop // the control loop, shared with the simulator
	queue chan *call

	// epoch anchors the engine tick clock: Now() is nanoseconds since
	// construction, the timestamp base for every span this engine touches.
	epoch time.Time

	draining atomic.Bool
	requests uint64 // admitted requests processed (engine goroutine only)
	commits  uint64 // durable batches committed (engine goroutine only)
	pauses   uint64 // turns that collected or failed, n in GCID(n) (engine goroutine only)

	// ewmaMs is the exponentially weighted mean service time in
	// milliseconds, stored as float64 bits so Submit (session goroutines)
	// can read it without a lock for retry-after hints.
	ewmaMs atomic.Uint64
}

// NewEngine builds an engine over the heap. The heap must be in oracleless
// mode (the server has no replay annotations); NewEngine enforces it. It
// announces the run's policy and selection to the observer, as a replay does
// before its first event.
func NewEngine(heap *gc.Heap, cfg EngineConfig) (*Engine, error) {
	if heap == nil {
		return nil, fmt.Errorf("server: engine requires a heap")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	heap.SetOracleless(true)
	e := &Engine{
		cfg:   cfg,
		heap:  heap,
		queue: make(chan *call, cfg.QueueDepth),
		epoch: time.Now(),
	}
	if cfg.Durable != nil {
		heap.SetDurable(cfg.Durable)
	}
	e.loop = sim.Loop{Cycle: core.Cycle{Heap: heap, Policy: cfg.Policy, Selection: cfg.Selection, AfterCollect: e.commitReclaim},
		Observer: cfg.Observer}
	if cfg.Observer != nil {
		cfg.Observer.Observe(obs.Envelope{RunStart: &obs.RunStart{Policy: cfg.Policy.Name(), Selection: cfg.Selection.Name()}})
	}
	return e, nil
}

// QueueDepth returns the admission bound.
func (e *Engine) QueueDepth() int { return cap(e.queue) }

// Now returns the engine tick: nanoseconds since the engine was built, on
// the monotonic clock. Safe from any goroutine; every span timestamp in
// this server shares this base.
func (e *Engine) Now() int64 { return int64(time.Since(e.epoch)) }

// Recorder returns the engine's span flight recorder (nil when tracing is
// disabled).
func (e *Engine) Recorder() *span.Recorder { return e.cfg.Recorder }

// BeginDrain stops admission: every Submit from now on is answered
// StatusClosed. Already-queued calls still execute.
func (e *Engine) BeginDrain() { e.draining.Store(true) }

// CloseQueue ends the engine's run loop once the queue empties. It must be
// called exactly once, after every session that could Submit has exited.
func (e *Engine) CloseQueue() { close(e.queue) }

// retryAfterMs estimates when shed work is worth retrying: the observed
// mean service time times the queue bound — roughly one full queue's
// worth of draining — with a floor of 1ms so the hint is never zero.
func (e *Engine) retryAfterMs() int {
	ewma := math.Float64frombits(e.ewmaMs.Load())
	ms := int(ewma * float64(cap(e.queue)))
	if ms < 1 {
		ms = 1
	}
	return ms
}

// Submit runs one request through admission control and waits for its
// response. The fast failure paths never block:
//
//   - draining server: StatusClosed immediately;
//   - full queue: StatusShed immediately, with a retry-after hint;
//   - ctx done while waiting: a classified error response (the admitted
//     request may still execute; its response is dropped).
//
// sp is the request's span (nil when tracing is off); Submit only copies
// its ID into the call, so the span remains session-owned throughout.
func (e *Engine) Submit(ctx context.Context, req Request, sp *obs.Span) Response {
	c := &call{req: req, done: make(chan Response, 1), spanID: sp.SpanID()}
	if dl, ok := ctx.Deadline(); ok {
		c.deadline = dl
	}
	if resp, ok := e.admit(c); !ok {
		return resp
	}
	select {
	case resp := <-c.done:
		return resp
	case <-ctx.Done():
		return e.gaveUp(req.ID, ctx.Err())
	}
}

// admit stamps c's enqueue tick and queues it, or reports false with the
// response that refuses it. Once admitted, c belongs to the engine until
// its response has been received from c.done, and counts as in flight until
// the engine sends that response.
func (e *Engine) admit(c *call) (Response, bool) {
	if e.draining.Load() {
		return Response{ID: c.req.ID, Status: StatusClosed,
			Error: simerr.SessionClosedf("server draining").Error()}, false
	}
	c.enq = e.Now()
	m := e.cfg.Metrics
	// Counted before the send, so the engine's -1 can never come first.
	m.inflight.Add(1)
	select {
	case e.queue <- c:
		return Response{}, true
	default:
		m.inflight.Add(-1)
		m.shed.Add(1)
		return Response{ID: c.req.ID, Status: StatusShed,
			Error:        simerr.Overloadedf("admission queue full (%d deep)", cap(e.queue)).Error(),
			RetryAfterMs: e.retryAfterMs()}, false
	}
}

// gaveUp counts and formats the answer to a waiter that stopped waiting for
// an admitted call, for cause (a context error).
func (e *Engine) gaveUp(id uint64, cause error) Response {
	err := simerr.FromContext(cause)
	e.cfg.Metrics.failed(err)
	return Response{ID: id, Status: StatusError, Error: err.Error()}
}

// waiter is Submit for a session, which sends one request at a time: the
// call, its response channel and the timeout's timer are made once and used
// again for every request, where Submit makes a call and a channel, and its
// caller a context, per request. The one rule is that a call the waiter
// gave up on stays the engine's — its late response lands in a channel
// nobody reads — and the next request gets a new one.
type waiter struct {
	e       *Engine
	timeout time.Duration
	c       *call       // nil before the first request and after an abandoned one
	timer   *time.Timer // nil before the first admitted request; stopped and drained between requests
}

// submit is Submit with the waiter's timeout as the deadline; ctx only
// cancels.
func (w *waiter) submit(ctx context.Context, req Request, sp *obs.Span) Response {
	if w.c == nil {
		w.c = &call{done: make(chan Response, 1)}
	}
	c := w.c
	c.req, c.spanID, c.deadline = req, sp.SpanID(), time.Now().Add(w.timeout)
	if resp, ok := w.e.admit(c); !ok {
		return resp
	}
	if w.timer == nil {
		w.timer = time.NewTimer(w.timeout)
	} else {
		w.timer.Reset(w.timeout)
	}
	select {
	case resp := <-c.done:
		w.stopTimer()
		return resp
	case <-w.timer.C:
		w.c = nil
		return w.e.gaveUp(req.ID, context.DeadlineExceeded)
	case <-ctx.Done():
		w.stopTimer()
		w.c = nil
		return w.e.gaveUp(req.ID, ctx.Err())
	}
}

// stopTimer leaves the timer stopped with nothing in its channel, which is
// what Reset needs of it.
func (w *waiter) stopTimer() {
	if !w.timer.Stop() {
		<-w.timer.C
	}
}

// Run is the engine loop: it executes queued calls one at a time until the
// queue is closed and empty (clean drain, returns nil) or ctx is cancelled
// (hard stop, returns the classified context error). Only this goroutine
// touches the heap.
func (e *Engine) Run(ctx context.Context) error {
	for {
		select {
		case <-ctx.Done():
			return simerr.FromContext(ctx.Err())
		case c, ok := <-e.queue:
			if !ok {
				return nil
			}
			e.process(c)
		}
	}
}

// process executes one admitted call: deadline check, the op itself, the
// durable commit, the artificial service delay, the response, the question
// the simulator asks before its next event (is a collection due?), and the
// heartbeat a replay gives after each event.
func (e *Engine) process(c *call) {
	m := e.cfg.Metrics
	start := time.Now()
	startTick := e.Now()
	queueNs := startTick - c.enq
	if !c.deadline.IsZero() && start.After(c.deadline) {
		// The waiter's deadline passed while the call sat in queue; skip
		// the work — under overload, executing dead requests only digs the
		// hole deeper.
		m.expired.Add(1)
		m.stageQueue.ObserveExemplar(float64(queueNs)/1e6, c.spanID)
		m.inflight.Add(-1)
		c.done <- Response{ID: c.req.ID, Status: StatusError, Expired: true,
			QueueUs: queueNs / 1e3,
			Error:   simerr.FromContext(context.DeadlineExceeded).Error()}
		return
	}
	m.requests.Add(1)
	e.requests++
	resp := e.apply(c.req)
	// Commit the WAL batch this request staged before acknowledging it: an
	// OK response must mean the mutation survives a crash. Requests that
	// failed mid-way may still have staged records for the mutations that
	// did land; committing unconditionally keeps the durable state exactly
	// in step with the heap (empty batches are free).
	if err := e.commitDurable(); err != nil && resp.Status == StatusOK {
		resp = e.fail(c.req.ID, err)
	}
	if e.cfg.ServiceDelay > 0 {
		time.Sleep(e.cfg.ServiceDelay)
	}
	serviceNs := e.Now() - startTick
	resp.QueueUs = queueNs / 1e3
	resp.ServiceUs = serviceNs / 1e3
	m.stageQueue.ObserveExemplar(float64(queueNs)/1e6, c.spanID)
	m.stageService.ObserveExemplar(float64(serviceNs)/1e6, c.spanID)
	// Admission to response: the queue wait and service the response reports.
	m.latency.Observe(float64(resp.QueueUs+resp.ServiceUs) / 1e3)
	m.inflight.Add(-1)
	parent := c.spanID // the send hands c back to its waiter, who may reuse it
	c.done <- resp

	// GC after responding: collection time is not billed to the request
	// that happened to trigger it — but the collection's span is parented
	// to it, attributing the pause to the traffic that provoked it.
	if e.loop.Due() {
		e.collect(parent)
	}
	e.loop.Heartbeat(int(e.requests), int(e.heap.Collections()), servingPhase)

	// The retry-after hint wants the engine's occupancy, collection included.
	ms := float64(time.Since(start)) / float64(time.Millisecond)
	const w = 0.9 // smoothing for the retry-after hint
	prev := math.Float64frombits(e.ewmaMs.Load())
	if prev == 0 {
		prev = ms
	}
	e.ewmaMs.Store(math.Float64bits(w*prev + (1-w)*ms))
}

// commitDurable commits the staged WAL batch (if a backend is attached)
// and takes the periodic checkpoint when one falls due. Engine goroutine
// only. Only a commit failure is returned: once Commit succeeds the
// request's mutation is durable, and failing the request over a broken
// checkpoint would make a retrying client duplicate a committed write.
// A checkpoint failure is counted on /metrics and retried at the next
// checkpoint interval; the backend rolls an aborted checkpoint back, so
// the WAL simply keeps growing until one succeeds. A commit that found
// nothing staged is not a batch: it counts toward no checkpoint, so reads
// never checkpoint a database they did not change.
func (e *Engine) commitDurable() error {
	sealed, err := e.heap.Commit()
	if err != nil {
		return fmt.Errorf("durable commit: %w", err)
	}
	if !sealed {
		return nil
	}
	e.commits++
	e.cfg.Metrics.durableCommits.Add(1)
	if every := e.cfg.CheckpointEvery; every > 0 && e.commits%uint64(every) == 0 {
		if err := e.cfg.Durable.Checkpoint(); err != nil {
			e.cfg.Metrics.failed(err)
		} else {
			e.cfg.Metrics.durableCheckpoints.Add(1)
		}
	}
	return nil
}

// fail classifies, counts, and formats an op error.
func (e *Engine) fail(id uint64, err error) Response {
	e.cfg.Metrics.failed(err)
	return Response{ID: id, Status: StatusError, Error: err.Error()}
}

// apply executes one op: it turns the request into the events a replay of
// it would hold and steps them through the loop.
func (e *Engine) apply(req Request) Response {
	ok := Response{ID: req.ID, Status: StatusOK}
	ev := trace.Event{OID: objstore.OID(req.OID)}
	switch req.Op {
	case OpPing:
		return ok
	case OpStats:
		ok.Stats = e.stats()
		return ok
	case OpCreate:
		// Refused before the heap sees it: the object store would allocate
		// the slot array first, and a durable backend could log an object
		// this wide but never checkpoint it.
		if req.Slots < 0 || req.Slots > disk.MaxSlots {
			return e.fail(req.ID, fmt.Errorf("create: %d slots outside [0, %d]", req.Slots, disk.MaxSlots))
		}
		ev = trace.Event{Kind: trace.KindCreate, OID: e.heap.Store().NextOID(), Size: req.Size, Slots: req.Slots}
		if err := e.loop.Apply(&ev); err != nil {
			return e.fail(req.ID, err)
		}
		// New objects are pinned as roots until the client links them into
		// the graph and unroots them: without replay annotations, an
		// unpinned object could be reclaimed between its create and the
		// set that makes it reachable.
		ok.OID = uint64(ev.OID)
		ev = trace.Event{Kind: trace.KindRoot, OID: ev.OID, Size: 1}
	case OpAccess:
		ev.Kind = trace.KindAccess
	case OpUpdate:
		ev.Kind = trace.KindUpdate
	case OpSet:
		o := e.heap.Store().Get(ev.OID)
		if o == nil {
			return e.fail(req.ID, fmt.Errorf("set: absent object %v", ev.OID))
		}
		if req.Slot < 0 || req.Slot >= len(o.Slots) {
			return e.fail(req.ID, fmt.Errorf("set: slot %d out of range [0,%d) on %v", req.Slot, len(o.Slots), ev.OID))
		}
		// An overwrite of a nil slot is an initializing store: it cannot
		// create garbage and does not advance the overwrite clock.
		old := o.Slots[req.Slot]
		ev = trace.Event{Kind: trace.KindOverwrite, OID: ev.OID, Slot: req.Slot, Old: old, New: objstore.OID(req.Dst), Init: old.IsNil()}
		ok.Old = uint64(old)
	case OpRoot:
		ev.Kind, ev.Size = trace.KindRoot, 1
	case OpUnroot:
		ev.Kind = trace.KindRoot
	default:
		return e.fail(req.ID, fmt.Errorf("unknown op %q", req.Op))
	}
	if err := e.loop.Apply(&ev); err != nil {
		return e.fail(req.ID, err)
	}
	return ok
}

// Snapshot returns the engine's statistics. Safe only while the engine
// loop is not running (before Run starts, or after it returns); the daemon
// calls it post-drain to stamp the run manifest.
func (e *Engine) Snapshot() *Stats { return e.stats() }

// Requests returns the number of admitted requests processed, under the
// same conditions as Snapshot.
func (e *Engine) Requests() uint64 { return e.requests }

// stats snapshots the live database and controller state. Runs on the
// engine goroutine, so the reads need no locks.
func (e *Engine) stats() *Stats {
	disk := e.heap.Disk().Stats()
	st := &Stats{
		Objects:        e.heap.Store().Len(),
		DBBytes:        e.heap.DatabaseBytes(),
		Partitions:     e.heap.NumPartitions(),
		Roots:          e.heap.Store().NumRoots(),
		OverwriteClock: e.heap.OverwriteClock(),
		Collections:    e.heap.Collections(),
		ReclaimedBytes: e.heap.TotalCollectedBytes(),
		AppIO:          disk.AppIO(),
		GCIO:           disk.GCIO(),
		Policy:         e.cfg.Policy.Name(),
		QueueLen:       len(e.queue),
		QueueDepth:     cap(e.queue),
	}
	if e.cfg.Breaker != nil {
		st.BreakerState = e.cfg.Breaker.State().String()
	}
	return st
}

// collect takes one turn of the control loop. A turn that collected or
// failed is a pause: its engine ticks, the decision and collection sends
// included, are a gc_pause_ms sample, and with a recorder attached a GC span
// times it — the child of span parent, the request that triggered it, which
// the recorder pins — carrying the collection, the requests queued behind it
// and the breaker state. A failed turn is counted and fed to the breaker, and
// the engine keeps serving: client traffic must not die with the collector.
func (e *Engine) collect(parent uint64) {
	start := e.Now()
	c, err := e.loop.Collect(int(e.requests), servingPhase, false)
	if err != nil || c.Collected {
		end := e.Now()
		e.pauses++
		var id uint64
		if rec := e.cfg.Recorder; rec != nil {
			id = obs.GCID(e.pauses)
			g := rec.Start(obs.KindGC, "collect", id, parent, start)
			g.Seq = e.pauses
			g.SetCollection(c)
			g.SetStage(obs.StageService, end-start)
			g.QueuedBehind = len(e.queue)
			outcome := obs.OutcomeError
			if err == nil {
				outcome = obs.OutcomeOK
				if e.cfg.Breaker != nil {
					g.Breaker = e.cfg.Breaker.State().String()
				}
			}
			rec.PinID(parent)
			rec.Finish(g, end, outcome)
		}
		e.cfg.Metrics.gcPause.ObserveExemplar(float64(end-start)/1e6, id)
	}
	if err != nil {
		e.cfg.Metrics.failed(simerr.WrapPolicyFailure("online collection", err))
	}
	if b := e.cfg.Breaker; b != nil {
		if err != nil {
			b.RecordFailure()
		}
		e.cfg.Metrics.breakerObserve(b)
	}
}

// commitReclaim commits the reclaim record a collection staged: a recovered
// heap must never resurrect collected garbage, so the reclaim is durable
// before any later batch can build on the space it freed.
func (e *Engine) commitReclaim() {
	if err := e.commitDurable(); err != nil {
		e.cfg.Metrics.failed(err)
	}
}
