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
	"odbgc/internal/simerr"
	"odbgc/internal/storage"
	"odbgc/internal/storage/disk"
)

// EngineConfig parameterizes the request engine.
type EngineConfig struct {
	// Policy decides when the online collector runs; consulted after every
	// admitted request against the live clock. Required.
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
	// Breaker, when set, is observed after every collection so its state
	// reaches /metrics. It should be the same value wired into the Policy's
	// estimator.
	Breaker *Breaker
	// Metrics is the serving-path metrics sink (nil for none).
	Metrics *Metrics
	// Observer receives Decision/Collection events as the online GC runs
	// (nil for none). Step carries the admitted-request count.
	Observer obs.Observer
	// Recorder is the span flight recorder (nil disables tracing; the nil
	// fast path costs one pointer test per request). Collections that run
	// while a request is in service emit GC child spans attributed to it.
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
	cfg     EngineConfig
	heap    *gc.Heap
	durable *stagedBackend // cfg.Durable as the heap logs to it; nil without one
	cycle   core.Cycle     // the control loop; process decides when it runs
	queue   chan *call

	// epoch anchors the engine tick clock: Now() is nanoseconds since
	// construction, the timestamp base for every span this engine touches.
	epoch time.Time

	draining atomic.Bool
	requests uint64 // admitted requests processed (engine goroutine only)
	gcSeq    uint64 // collection spans emitted (engine goroutine only)
	commits  uint64 // durable batches committed (engine goroutine only)

	// ewmaMs is the exponentially weighted mean service time in
	// milliseconds, stored as float64 bits so Submit (session goroutines)
	// can read it without a lock for retry-after hints.
	ewmaMs atomic.Uint64
}

// NewEngine builds an engine over the heap. The heap must be in oracleless
// mode (the server has no replay annotations); NewEngine enforces it.
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
		e.durable = &stagedBackend{Backend: cfg.Durable}
		heap.SetDurable(e.durable)
	}
	e.cycle = core.Cycle{Heap: heap, Policy: cfg.Policy, Selection: cfg.Selection, AfterCollect: e.commitReclaim}
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
func (e *Engine) Submit(ctx context.Context, req Request, sp *span.Span) Response {
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
// its response has been received from c.done.
func (e *Engine) admit(c *call) (Response, bool) {
	if e.draining.Load() {
		return Response{ID: c.req.ID, Status: StatusClosed,
			Error: simerr.SessionClosedf("server draining").Error()}, false
	}
	c.enq = e.Now()
	select {
	case e.queue <- c:
		return Response{}, true
	default:
		e.cfg.Metrics.Shed()
		return Response{ID: c.req.ID, Status: StatusShed,
			Error:        simerr.Overloadedf("admission queue full (%d deep)", cap(e.queue)).Error(),
			RetryAfterMs: e.retryAfterMs()}, false
	}
}

// gaveUp counts and formats the answer to a waiter that stopped waiting for
// an admitted call, for cause (a context error).
func (e *Engine) gaveUp(id uint64, cause error) Response {
	err := simerr.FromContext(cause)
	e.cfg.Metrics.Error(simerr.Classify(err))
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
func (w *waiter) submit(ctx context.Context, req Request, sp *span.Span) Response {
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
// artificial service delay, then a GC policy consultation — the online
// equivalent of the simulator's per-event ShouldCollect probe.
func (e *Engine) process(c *call) {
	start := time.Now()
	startTick := e.Now()
	queueNs := startTick - c.enq
	if !c.deadline.IsZero() && start.After(c.deadline) {
		// The waiter's deadline passed while the call sat in queue; skip
		// the work — under overload, executing dead requests only digs the
		// hole deeper.
		e.cfg.Metrics.Expired()
		e.cfg.Metrics.Stage(MetricStageQueue, float64(queueNs)/1e6, c.spanID)
		c.done <- Response{ID: c.req.ID, Status: StatusError, Expired: true,
			QueueUs: queueNs / 1e3,
			Error:   simerr.FromContext(context.DeadlineExceeded).Error()}
		return
	}
	e.cfg.Metrics.RequestStart()
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
	e.cfg.Metrics.Stage(MetricStageQueue, float64(queueNs)/1e6, c.spanID)
	e.cfg.Metrics.Stage(MetricStageService, float64(serviceNs)/1e6, c.spanID)
	parent := c.spanID // the send hands c back to its waiter, who may reuse it
	c.done <- resp

	// GC after responding: collection time is not billed to the request
	// that happened to trigger it — but the collection's span is parented
	// to it, attributing the pause to the traffic that provoked it.
	if e.cycle.Due() {
		e.collect(parent)
	}

	ms := float64(time.Since(start)) / float64(time.Millisecond)
	e.cfg.Metrics.RequestEnd(ms)
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
	d := e.durable
	if d == nil {
		return nil
	}
	if err := d.Commit(); err != nil {
		return fmt.Errorf("durable commit: %w", err)
	}
	if d.staged == 0 {
		return nil
	}
	d.staged = 0
	e.commits++
	e.cfg.Metrics.DurableCommit()
	if every := e.cfg.CheckpointEvery; every > 0 && e.commits%uint64(every) == 0 {
		if err := d.Checkpoint(); err != nil {
			e.cfg.Metrics.Error(simerr.Classify(err))
		} else {
			e.cfg.Metrics.DurableCheckpoint()
		}
	}
	return nil
}

// fail classifies, counts, and formats an op error.
func (e *Engine) fail(id uint64, err error) Response {
	e.cfg.Metrics.Error(simerr.Classify(err))
	return Response{ID: id, Status: StatusError, Error: err.Error()}
}

// apply executes one op against the heap.
func (e *Engine) apply(req Request) Response {
	switch req.Op {
	case OpPing:
		return Response{ID: req.ID, Status: StatusOK}
	case OpCreate:
		if req.Size <= 0 {
			return e.fail(req.ID, fmt.Errorf("create: size %d must be positive", req.Size))
		}
		// Refused before the heap sees it: the object store would allocate
		// the slot array first, and a durable backend could log an object
		// this wide but never checkpoint it.
		if req.Slots < 0 || req.Slots > disk.MaxSlots {
			return e.fail(req.ID, fmt.Errorf("create: %d slots outside [0, %d]", req.Slots, disk.MaxSlots))
		}
		oid := e.heap.Store().NextOID()
		if err := e.heap.Create(oid, objstore.ClassUnknown, req.Size, req.Slots); err != nil {
			return e.fail(req.ID, err)
		}
		// New objects are pinned as roots until the client links them into
		// the graph and unroots them: without replay annotations, an
		// unpinned object could be reclaimed between its create and the
		// set that makes it reachable.
		if err := e.heap.AddRoot(oid); err != nil {
			return e.fail(req.ID, err)
		}
		return Response{ID: req.ID, Status: StatusOK, OID: uint64(oid)}
	case OpAccess:
		if err := e.heap.Access(objstore.OID(req.OID)); err != nil {
			return e.fail(req.ID, err)
		}
		return Response{ID: req.ID, Status: StatusOK}
	case OpUpdate:
		if err := e.heap.Update(objstore.OID(req.OID)); err != nil {
			return e.fail(req.ID, err)
		}
		return Response{ID: req.ID, Status: StatusOK}
	case OpSet:
		src := objstore.OID(req.OID)
		o := e.heap.Store().Get(src)
		if o == nil {
			return e.fail(req.ID, fmt.Errorf("set: absent object %v", src))
		}
		if req.Slot < 0 || req.Slot >= len(o.Slots) {
			return e.fail(req.ID, fmt.Errorf("set: slot %d out of range [0,%d) on %v", req.Slot, len(o.Slots), src))
		}
		old := o.Slots[req.Slot]
		// An overwrite of a nil slot is an initializing store: it cannot
		// create garbage and does not advance the overwrite clock.
		init := old.IsNil()
		if err := e.heap.Overwrite(src, req.Slot, old, objstore.OID(req.Dst), init); err != nil {
			return e.fail(req.ID, err)
		}
		return Response{ID: req.ID, Status: StatusOK, Old: uint64(old)}
	case OpRoot:
		if err := e.heap.AddRoot(objstore.OID(req.OID)); err != nil {
			return e.fail(req.ID, err)
		}
		return Response{ID: req.ID, Status: StatusOK}
	case OpUnroot:
		if e.heap.Store().Get(objstore.OID(req.OID)) == nil {
			return e.fail(req.ID, fmt.Errorf("unroot: absent object %v", objstore.OID(req.OID)))
		}
		if err := e.heap.RemoveRoot(objstore.OID(req.OID)); err != nil {
			return e.fail(req.ID, err)
		}
		return Response{ID: req.ID, Status: StatusOK}
	case OpStats:
		return Response{ID: req.ID, Status: StatusOK, Stats: e.stats()}
	default:
		return e.fail(req.ID, fmt.Errorf("unknown op %q", req.Op))
	}
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
	//lint:allow hotpath the snapshot escapes to the requester by design
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

// collect takes one turn of the control loop and does the serving-side
// bookkeeping around it: breaker and error metrics, the GC span, and the
// observer events. parent is the span ID of the request whose processing
// triggered this collection (0 when tracing is off).
func (e *Engine) collect(parent uint64) {
	start, queued := e.Now(), len(e.queue)
	c, err := e.cycle.Run()
	if err != nil {
		// A failed collection is a policy-path failure: count it, feed the
		// breaker, and keep serving — the heap refuses to mutate on the
		// error paths that matter, and client traffic must not die with
		// the collector.
		err = simerr.WrapPolicyFailure("online collection", err)
		e.cfg.Metrics.Error(simerr.Classify(err))
		if e.cfg.Breaker != nil {
			e.cfg.Breaker.RecordFailure()
		}
	}
	if err == nil && !c.Collected {
		e.emitDecision(c)
		return
	}
	if b := e.cfg.Breaker; b != nil {
		e.cfg.Metrics.BreakerObserve(b.State(), b.Trips(), b.Recoveries())
	}
	e.emitGCSpan(parent, start, queued, c, err)
	if err != nil {
		return
	}
	e.emitDecision(c)
	if e.cfg.Observer != nil {
		e.cfg.Observer.ObserveCollection(obs.CollectionOf(c, int(e.requests), "serving"))
	}
}

// commitReclaim commits the reclaim record a collection staged: a recovered
// heap must never resurrect collected garbage, so the reclaim is durable
// before any later batch can build on the space it freed.
func (e *Engine) commitReclaim() {
	if err := e.commitDurable(); err != nil {
		e.cfg.Metrics.Error(simerr.Classify(err))
	}
}

// emitGCSpan records a collection that began at engine tick start as a child
// span of the request that triggered it: the pause duration lands in the
// service stage, the GC pause histogram gets the sample with the span as
// exemplar, and the parent is pinned so the link in the flight recorder
// survives eviction. c is the zero record when the collection failed.
func (e *Engine) emitGCSpan(parent uint64, start int64, queued int, c core.Collection, failed error) {
	rec := e.cfg.Recorder
	if rec == nil {
		return
	}
	e.gcSeq++
	gsp := rec.Start(span.KindGC, "collect", span.GCID(e.gcSeq), parent, start)
	gsp.Seq = e.gcSeq
	gsp.QueuedBehind = queued
	gsp.SetCollection(c)
	outcome := span.OutcomeError
	if failed == nil {
		outcome = span.OutcomeOK
		if e.cfg.Breaker != nil {
			gsp.Breaker = e.cfg.Breaker.State().String()
		}
	}
	end := e.Now()
	gsp.SetStage(span.StageService, end-start)
	e.cfg.Metrics.Stage(MetricGCPause, float64(end-start)/1e6, gsp.ID)
	if parent != 0 {
		rec.PinID(parent)
	}
	rec.Finish(gsp, end, outcome)
}

// emitDecision reports one policy consultation to the observer.
func (e *Engine) emitDecision(c core.Collection) {
	if e.cfg.Observer != nil {
		e.cfg.Observer.ObserveDecision(obs.DecisionOf(c, int(e.requests), false))
	}
}
