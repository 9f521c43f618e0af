package core

import (
	"odbgc/internal/gc"
	"odbgc/internal/storage"
)

// Diagnostics is implemented by rate policies that expose what their last
// AfterCollection computed (SAGA and the PI controller): estimated and target
// garbage in bytes, and the scheduled interval in pointer overwrites. The
// values are valid only once AfterCollection has returned.
type Diagnostics interface {
	LastEstimate() float64
	LastTarget() float64
	LastInterval() uint64
}

// Collection is the record of one turn of the control loop. The simulator's
// CollectionRecord, the observer's Collection and Decision events and the GC
// span are all conversions of it.
type Collection struct {
	// Collected is false when the selection policy found no partition worth
	// collecting: the rate policy was rescheduled off an empty result and
	// Index, Interval and Result are zero.
	Collected bool
	Index     int // 1-based count of collections the heap has run

	// Before is the clock the turn started at, After the clock the rate
	// policy was told (equal to Before when nothing was collected).
	Before, After Clock
	Interval      uint64 // pointer overwrites since the previous collection

	Result        gc.CollectionResult
	CumulativeIO  storage.IOStats // totals just after the collection
	DatabaseBytes int             // occupied bytes after the collection
	GarbageBytes  int             // the oracle's count after it; zero on an oracleless heap

	// The rate policy's Diagnostics, zero for policies without them.
	Estimate     float64 // estimated garbage bytes
	Target       float64 // target garbage bytes
	NextInterval uint64  // overwrites until the next collection
}

// Frac is bytes (GarbageBytes, Estimate, Target) as a fraction of the
// database; zero for an empty database.
func (c *Collection) Frac(bytes float64) float64 {
	if c.DatabaseBytes <= 0 {
		return 0
	}
	return bytes / float64(c.DatabaseBytes)
}

// Cycle is the paper's feedback loop, written once: ask the rate policy,
// pick a partition, collect it, feed the yield back, schedule the next
// interval. The simulator and the server engine drive the same Cycle; what
// stays theirs is when to ask (Due), the time base of the GC span, and where
// the durable commit boundary falls (AfterCollect).
type Cycle struct {
	Heap      *gc.Heap
	Policy    RatePolicy
	Selection gc.SelectionPolicy
	// AfterCollect, when non-nil, runs right after a successful Heap.Collect,
	// before any feedback: the engine commits the collection's reclaim batch
	// there. Not called when nothing was collected or Collect failed.
	AfterCollect func()
	// LastOverwrites is the overwrite clock at the previous collection, the
	// base of the next record's Interval. A driver resuming a saved run seeds
	// it; otherwise it starts at zero.
	LastOverwrites uint64
}

// Clock reads the policy clock off the heap's live counters.
func (c *Cycle) Clock() Clock {
	st := c.Heap.Disk().Stats()
	return Clock{AppIO: st.AppIO(), GCIO: st.GCIO(), Overwrites: c.Heap.OverwriteClock()}
}

// Due reports whether the rate policy wants a collection now.
func (c *Cycle) Due() bool { return c.Policy.ShouldCollect(c.Clock()) }

// Run takes one turn: Select, Collect, AfterCollect, yield feedback to a
// selection policy that is a gc.YieldObserver, Policy.AfterCollection. The
// record is assembled only after AfterCollection returns. A Collect error is
// returned as is, with neither the hook nor the policy called, so the policy
// stays due and the driver decides whether that ends the run.
func (c *Cycle) Run() (Collection, error) {
	now := c.Clock()
	part, ok := c.Selection.Select(c.Heap)
	if !ok {
		// Nothing worth collecting; let the policy reschedule off an empty
		// collection so it does not retrigger at every opportunity.
		c.Policy.AfterCollection(now, c.Heap, gc.CollectionResult{})
		return c.record(Collection{Before: now, After: now}), nil
	}
	res, err := c.Heap.Collect(part)
	if err != nil {
		return Collection{}, err
	}
	if c.AfterCollect != nil {
		c.AfterCollect()
	}
	if yo, ok := c.Selection.(gc.YieldObserver); ok {
		yo.ObserveCollection(res)
	}
	after := c.Clock()
	c.Policy.AfterCollection(after, c.Heap, res)

	rec := c.record(Collection{
		Collected:    true,
		Index:        int(c.Heap.Collections()),
		Before:       now,
		After:        after,
		Interval:     now.Overwrites - c.LastOverwrites,
		Result:       res,
		CumulativeIO: c.Heap.Disk().Stats(),
	})
	c.LastOverwrites = after.Overwrites
	return rec, nil
}

// record fills in the state every turn reports, collected or not.
func (c *Cycle) record(rec Collection) Collection {
	rec.DatabaseBytes = c.Heap.DatabaseBytes()
	rec.GarbageBytes = c.Heap.ActualGarbageBytes()
	if d, ok := c.Policy.(Diagnostics); ok {
		rec.Estimate = d.LastEstimate()
		rec.Target = d.LastTarget()
		rec.NextInterval = d.LastInterval()
	}
	return rec
}
