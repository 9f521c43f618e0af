package main

import (
	"sync/atomic"
	"time"

	"odbgc/internal/core"
	"odbgc/internal/gc"
	"odbgc/internal/objstore"
	"odbgc/internal/storage"
)

// traceCtx ties the wrappers of one program instance together: the span log,
// the stack of spans open on the goroutine that owns the heap (the simulator's
// caller or the engine goroutine; never both at once), and the operation the
// spans belong to. Every method is safe on a nil receiver and on a nil log,
// so the same wrappers serve passes that record nothing.
type traceCtx struct {
	log   *spanLog
	stack []int32

	// opSpan and opID identify the operation in progress: the client stores
	// its in-flight request's span and ordinal (exact with one closed-loop
	// client), replay stores the step's.
	opSpan atomic.Int32
	opID   atomic.Uint64
}

// setOp names the operation the following spans belong to.
func (t *traceCtx) setOp(span int32, id uint64) {
	if t == nil {
		return
	}
	t.opID.Store(id)
	t.opSpan.Store(span)
}

// push opens a span under the innermost open span, or under the operation in
// progress when none is open.
func (t *traceCtx) push(name string) int32 {
	if t == nil || t.log == nil {
		return 0
	}
	parent := t.opSpan.Load()
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	h := t.log.begin(name, parent, t.opID.Load())
	t.stack = append(t.stack, h)
	return h
}

// pop closes the span push returned.
func (t *traceCtx) pop(h int32) {
	if t == nil || t.log == nil {
		return
	}
	t.log.end(h)
	t.stack = t.stack[:len(t.stack)-1]
}

// benchEpoch is the origin of the harness's timestamps.
var benchEpoch = time.Now()

// pauseClock times collections from outside the program, between the two
// seams every collection crosses: SelectionPolicy.Select on entry and
// RatePolicy.AfterCollection on exit. A pause is what the application waits
// while the collector holds the database.
type pauseClock struct {
	tc        *traceCtx
	start     time.Time
	span      int32
	selected  bool    // the Select in progress chose a partition
	pausesNs  []int64 // one per collection, Select entry to AfterCollection exit
	startsNs  []int64 // when each began, since benchEpoch
	selectNs  []int64
	afterNs   []int64
	results   []gc.CollectionResult
	keepStats bool // record selectNs/afterNs/results (traced passes)
}

// tracedSelection wraps a gc.SelectionPolicy.
type tracedSelection struct {
	inner gc.SelectionPolicy
	pc    *pauseClock
}

func (s *tracedSelection) Name() string { return s.inner.Name() }

func (s *tracedSelection) Select(h *gc.Heap) (storage.PartitionID, bool) {
	pc := s.pc
	pc.start = time.Now()
	pc.span = pc.tc.push("gc.pause")
	sel := pc.tc.push("gc.select")
	part, ok := s.inner.Select(h)
	pc.tc.pop(sel)
	pc.selected = ok
	if ok && pc.keepStats {
		pc.selectNs = append(pc.selectNs, int64(time.Since(pc.start)))
	}
	return part, ok
}

// tracedSelectionYield additionally forwards gc.YieldObserver, which the
// simulator and the engine look for with a type assertion.
type tracedSelectionYield struct {
	tracedSelection
	yield gc.YieldObserver
}

func (s *tracedSelectionYield) ObserveCollection(res gc.CollectionResult) {
	s.yield.ObserveCollection(res)
}

// wrapSelection returns a selection policy that times through pc and answers
// the same optional-interface assertions as inner.
func wrapSelection(inner gc.SelectionPolicy, pc *pauseClock) gc.SelectionPolicy {
	base := tracedSelection{inner: inner, pc: pc}
	if y, ok := inner.(gc.YieldObserver); ok {
		return &tracedSelectionYield{tracedSelection: base, yield: y}
	}
	return &base
}

// tracedPolicy wraps a core.RatePolicy.
type tracedPolicy struct {
	inner core.RatePolicy
	pc    *pauseClock
}

func (p *tracedPolicy) Name() string { return p.inner.Name() }

func (p *tracedPolicy) ShouldCollect(now core.Clock) bool { return p.inner.ShouldCollect(now) }

func (p *tracedPolicy) AfterCollection(now core.Clock, h core.HeapState, res gc.CollectionResult) {
	pc := p.pc
	var t0 time.Time
	if pc.keepStats {
		t0 = time.Now()
	}
	a := pc.tc.push("core.after_collection")
	p.inner.AfterCollection(now, h, res)
	pc.tc.pop(a)
	pc.tc.pop(pc.span)
	if !pc.selected {
		// The policy was due but no partition was worth collecting; the
		// program reschedules off an empty result. Not a collection.
		return
	}
	end := time.Now()
	pc.pausesNs = append(pc.pausesNs, int64(end.Sub(pc.start)))
	pc.startsNs = append(pc.startsNs, int64(pc.start.Sub(benchEpoch)))
	if pc.keepStats {
		pc.afterNs = append(pc.afterNs, int64(end.Sub(t0)))
		pc.results = append(pc.results, res)
	}
}

// sagaDiag is the diagnostics interface sim and server assert on policies.
type sagaDiag interface {
	LastEstimate() float64
	LastTarget() float64
	LastInterval() uint64
}

// tracedPolicyDiag additionally forwards the estimator diagnostics.
type tracedPolicyDiag struct {
	tracedPolicy
	diag sagaDiag
}

func (p *tracedPolicyDiag) LastEstimate() float64 { return p.diag.LastEstimate() }
func (p *tracedPolicyDiag) LastTarget() float64   { return p.diag.LastTarget() }
func (p *tracedPolicyDiag) LastInterval() uint64  { return p.diag.LastInterval() }

// wrapPolicy returns a rate policy that times through pc and answers the same
// optional-interface assertions as inner.
func wrapPolicy(inner core.RatePolicy, pc *pauseClock) core.RatePolicy {
	base := tracedPolicy{inner: inner, pc: pc}
	if d, ok := inner.(sagaDiag); ok {
		return &tracedPolicyDiag{tracedPolicy: base, diag: d}
	}
	return &base
}

// tracedBackend wraps the storage.Backend given to both Heap.SetDurable and
// the engine or simulator, recording a span per call and the commit and
// checkpoint durations.
type tracedBackend struct {
	inner storage.Backend
	tc    *traceCtx

	commitNs           []int64 // non-empty commits, traced passes only
	checkpointNs       []int64
	checkpointStartsNs []int64 // when each began, since benchEpoch
	staged             int     // records logged since the last commit
}

func (b *tracedBackend) LogAlloc(oid objstore.OID, class objstore.Class, size, nslots int) error {
	h := b.tc.push("disk.log")
	err := b.inner.LogAlloc(oid, class, size, nslots)
	b.tc.pop(h)
	b.staged++
	return err
}

func (b *tracedBackend) LogSet(src objstore.OID, slot int, dst objstore.OID) error {
	h := b.tc.push("disk.log")
	err := b.inner.LogSet(src, slot, dst)
	b.tc.pop(h)
	b.staged++
	return err
}

func (b *tracedBackend) LogRoot(oid objstore.OID, on bool) error {
	h := b.tc.push("disk.log")
	err := b.inner.LogRoot(oid, on)
	b.tc.pop(h)
	b.staged++
	return err
}

func (b *tracedBackend) LogReclaim(oids []objstore.OID) error {
	h := b.tc.push("disk.log")
	err := b.inner.LogReclaim(oids)
	b.tc.pop(h)
	b.staged++
	return err
}

func (b *tracedBackend) Commit() error {
	if b.staged == 0 || b.tc == nil {
		// An empty batch writes nothing; timing it would halve the median.
		b.staged = 0
		return b.inner.Commit()
	}
	t0 := time.Now()
	h := b.tc.push("disk.commit")
	err := b.inner.Commit()
	b.tc.pop(h)
	b.commitNs = append(b.commitNs, int64(time.Since(t0)))
	b.staged = 0
	return err
}

func (b *tracedBackend) Checkpoint() error {
	t0 := time.Now()
	h := b.tc.push("disk.checkpoint")
	err := b.inner.Checkpoint()
	b.tc.pop(h)
	b.checkpointNs = append(b.checkpointNs, int64(time.Since(t0)))
	b.checkpointStartsNs = append(b.checkpointStartsNs, int64(t0.Sub(benchEpoch)))
	return err
}

func (b *tracedBackend) Close() error { return b.inner.Close() }
