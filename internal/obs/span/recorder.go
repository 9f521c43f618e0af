// Package span is the serving stack's flight recorder: a preallocated
// ring-buffer store of request and GC spans (obs.Span) with tail-based
// retention — shed, errored, expired, slowest-percentile and GC spans are
// kept, and a request a GC span names as its parent is pinned. Span IDs are
// deterministic (obs.RequestID, obs.GCID), never random.
//
// All timestamps are caller-supplied ticks: the live server passes
// nanoseconds since engine start. The package itself never reads a clock.
//
// A dump is an obs event stream whose every envelope carries a span
// payload, written through obs.JSONLWriter: obs.ReadAll reads it back and
// obs.CheckAll checks it.
package span

import (
	"io"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"

	"odbgc/internal/obs"
)

// Recorder defaults.
const (
	defaultCapacity = 512 // spans per ring (bulk and retained each)
	slowWindow      = 256 // recent request durations tracked for the slow tail
	slowRecalc      = 64  // finishes between slow-threshold recomputations
	slowQuantile    = 90  // percentile above which an ok span is "slow"
	maxPendingPins  = 64  // pins recorded before their span has finished
	spikeSheds      = 16  // shed spans among the last spikeWindow that trip OnSpike
	spikeWindow     = 64  // finished request spans per shed-spike window
)

// Config parameterizes a Recorder. The zero value is usable: default
// capacity, p90 slow tail, spike detection disabled.
type Config struct {
	// Capacity is the span count of each ring (bulk and retained);
	// defaultCapacity when <= 0. All memory is allocated up front.
	Capacity int
	// OnSpike, when non-nil, fires whenever at least spikeSheds of the last
	// spikeWindow finished request spans were shed. It runs on the
	// goroutine that finished the tripping span, outside the recorder lock.
	OnSpike func(shed, window int)
}

// Stats is a point-in-time counter snapshot of recorder activity.
type Stats struct {
	Started         uint64 `json:"started"`
	Finished        uint64 `json:"finished"`
	Retained        uint64 `json:"retained"`
	Shed            uint64 `json:"shed"`
	GCSpans         uint64 `json:"gc_spans"`
	Pinned          uint64 `json:"pinned"`
	EvictedBulk     uint64 `json:"evicted_bulk"`
	EvictedRetained uint64 `json:"evicted_retained"`
	Spikes          uint64 `json:"spikes"`
	SlowThreshold   int64  `json:"slow_threshold_ticks"`
}

// ring is a fixed-capacity circular span buffer; slots may hold nil after a
// span is stolen by pinning. add always succeeds and returns the displaced
// occupant, if any.
type ring struct {
	buf  []*obs.Span
	head int
}

func (r *ring) add(sp *obs.Span) *obs.Span {
	old := r.buf[r.head]
	r.buf[r.head] = sp
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	return old
}

// take removes and returns the span with the given ID, or nil.
func (r *ring) take(id uint64) *obs.Span {
	for i, sp := range r.buf {
		if sp != nil && sp.ID == id {
			r.buf[i] = nil
			return sp
		}
	}
	return nil
}

// mark sets Pinned on the span with the given ID, reporting whether it was
// found.
func (r *ring) mark(id uint64) bool {
	for _, sp := range r.buf {
		if sp != nil && sp.ID == id {
			sp.Pinned = true
			return true
		}
	}
	return false
}

// Recorder is the flight recorder: two preallocated rings of pooled spans.
// The bulk ring holds the most recent ok spans; the retained ring holds the
// tail worth keeping — shed, errored, deadline-expired, slowest-percentile,
// GC, and pinned spans — and evicts pinned spans last. A nil *Recorder is a
// valid disabled recorder: Start returns nil and every method is a no-op,
// so instrumented code pays one nil test when tracing is off.
type Recorder struct {
	started atomic.Uint64

	mu   sync.Mutex
	pool sync.Pool
	bulk ring
	ret  ring

	// Slow-tail tracking: a circular window of recent ok-request durations,
	// re-sorted into scratch every slowRecalc finishes to refresh the
	// retention threshold.
	recent     [slowWindow]int64
	scratch    [slowWindow]int64
	recentLen  int
	recentIdx  int
	sinceSort  int
	slowThresh int64

	// Pins recorded for spans that have not finished yet (a GC child named
	// a parent the session is still writing); consumed at Finish.
	pins [maxPendingPins]uint64

	// Shed-spike window.
	winCount int
	winShed  int

	cfg Config
	st  Stats
}

// NewRecorder builds a Recorder with all span storage preallocated.
func NewRecorder(cfg Config) *Recorder {
	if cfg.Capacity <= 0 {
		cfg.Capacity = defaultCapacity
	}
	r := &Recorder{cfg: cfg}
	r.bulk.buf = make([]*obs.Span, cfg.Capacity)
	r.ret.buf = make([]*obs.Span, cfg.Capacity)
	r.pool.New = func() any { return new(obs.Span) }
	return r
}

// Start begins a span at the caller-supplied tick and returns it for the
// caller to fill. The span is owned by the caller until Finish; the
// recorder never touches it in between. Returns nil on a nil recorder.
func (r *Recorder) Start(kind, op string, id, parent uint64, start int64) *obs.Span {
	if r == nil {
		return nil
	}
	sp, ok := r.pool.Get().(*obs.Span)
	if !ok {
		return nil
	}
	*sp = obs.Span{ID: id, Parent: parent, Kind: kind, Op: op, Start: start}
	r.started.Add(1)
	return sp
}

// Finish stamps the span's end tick and outcome and hands it to the flight
// recorder, which decides retention: GC spans, non-ok outcomes, pinned
// spans, and ok spans slower than the rolling slow-tail threshold go to the
// retained ring; everything else cycles through the bulk ring. No-op on a
// nil recorder or nil span.
func (r *Recorder) Finish(sp *obs.Span, end int64, outcome string) {
	if r == nil || sp == nil {
		return
	}
	sp.End = end
	sp.Outcome = outcome
	spike := false
	shed, window := 0, 0
	r.mu.Lock()
	r.st.Finished++
	keep := false
	if sp.Kind == obs.KindGC {
		r.st.GCSpans++
		keep = true
	} else {
		keep = r.observeRequest(sp, outcome, &spike)
	}
	if r.consumePin(sp.ID) {
		sp.Pinned = true
		r.st.Pinned++
		keep = true
	}
	if sp.Pinned {
		keep = true
	}
	if keep {
		r.st.Retained++
		r.retain(sp)
	} else if old := r.bulk.add(sp); old != nil {
		r.st.EvictedBulk++
		r.release(old)
	}
	if spike {
		r.st.Spikes++
		shed, window = r.winShed, r.winCount
		r.winShed, r.winCount = 0, 0
	}
	r.mu.Unlock()
	if spike && r.cfg.OnSpike != nil {
		r.cfg.OnSpike(shed, window)
	}
}

// observeRequest folds a finished request span into the slow-tail and
// shed-spike windows and reports whether the span merits retention. Caller
// holds r.mu.
func (r *Recorder) observeRequest(sp *obs.Span, outcome string, spike *bool) bool {
	dur := sp.End - sp.Start
	keep := outcome != obs.OutcomeOK
	if outcome == obs.OutcomeShed {
		r.st.Shed++
		r.winShed++
	}
	r.winCount++
	if r.winCount >= spikeWindow {
		if r.winShed >= spikeSheds {
			*spike = true
		} else {
			r.winShed, r.winCount = 0, 0
		}
	}
	if outcome == obs.OutcomeOK {
		r.recent[r.recentIdx] = dur
		r.recentIdx++
		if r.recentIdx == slowWindow {
			r.recentIdx = 0
		}
		if r.recentLen < slowWindow {
			r.recentLen++
		}
		r.sinceSort++
		if r.sinceSort >= slowRecalc && r.recentLen >= slowRecalc {
			r.sinceSort = 0
			copy(r.scratch[:r.recentLen], r.recent[:r.recentLen])
			slices.Sort(r.scratch[:r.recentLen])
			r.slowThresh = r.scratch[r.recentLen*slowQuantile/100]
		}
		// Strictly slower than the p90 value: under a uniform duration
		// distribution nothing qualifies, so the retained ring is not
		// flooded with ordinary spans.
		if r.slowThresh > 0 && dur > r.slowThresh {
			keep = true
		}
	}
	return keep
}

// retain places a span in the retained ring, evicting the clock-hand victim
// but skipping pinned occupants for as long as any unpinned slot exists.
// Caller holds r.mu.
func (r *Recorder) retain(sp *obs.Span) {
	for range r.ret.buf {
		v := r.ret.buf[r.ret.head]
		if v == nil || !v.Pinned {
			break
		}
		r.ret.head++
		if r.ret.head == len(r.ret.buf) {
			r.ret.head = 0
		}
	}
	if old := r.ret.add(sp); old != nil {
		r.st.EvictedRetained++
		r.release(old)
	}
}

// release recycles an evicted span through the pool. Caller holds r.mu.
func (r *Recorder) release(sp *obs.Span) {
	*sp = obs.Span{}
	r.pool.Put(sp)
}

// consumePin removes id from the pending-pin table, reporting whether it
// was there. Caller holds r.mu.
func (r *Recorder) consumePin(id uint64) bool {
	found := false
	for i, p := range r.pins {
		if p == id {
			r.pins[i] = 0
			found = true
		}
	}
	return found
}

// PinID protects the span with the given ID from eviction — a GC span has
// named it as the request it ran under. If the span is still in flight the
// pin is parked in a small fixed table and consumed when the span finishes;
// if the table is full the oldest pending pin is dropped (the parent may
// then age out of a dump, which obs.CheckAll reports as a dangling reference
// rather than an error). No-op on a nil recorder or zero ID.
func (r *Recorder) PinID(id uint64) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	if r.ret.mark(id) {
		r.mu.Unlock()
		return
	}
	if sp := r.bulk.take(id); sp != nil {
		sp.Pinned = true
		r.st.Pinned++
		r.st.Retained++
		r.retain(sp)
		r.mu.Unlock()
		return
	}
	slot := -1
	for i, p := range r.pins {
		if p == 0 {
			slot = i
			break
		}
	}
	if slot < 0 {
		// Full: the first slot's pin leaves, the rest move up, and the new
		// pin takes the freed last slot.
		slot = len(r.pins) - 1
		copy(r.pins[:], r.pins[1:])
	}
	r.pins[slot] = id
	r.mu.Unlock()
}

// Snapshot copies every span currently held by either ring, ordered by
// start tick then ID — a deterministic order for a deterministic span set.
func (r *Recorder) Snapshot() []obs.Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]obs.Span, 0, len(r.ret.buf)+len(r.bulk.buf))
	for _, sp := range r.ret.buf {
		if sp != nil {
			out = append(out, *sp)
		}
	}
	for _, sp := range r.bulk.buf {
		if sp != nil {
			out = append(out, *sp)
		}
	}
	r.mu.Unlock()
	slices.SortFunc(out, func(a, b obs.Span) int {
		if a.Start != b.Start {
			if a.Start < b.Start {
				return -1
			}
			return 1
		}
		if a.ID != b.ID {
			if a.ID < b.ID {
				return -1
			}
			return 1
		}
		return 0
	})
	return out
}

// Stats returns a snapshot of the recorder's counters.
func (r *Recorder) Stats() Stats {
	if r == nil {
		return Stats{}
	}
	r.mu.Lock()
	st := r.st
	st.SlowThreshold = r.slowThresh
	r.mu.Unlock()
	st.Started = r.started.Load()
	return st
}

// Dump writes a Snapshot as obs envelopes, one span payload each, and
// returns the span count. Like every obs.JSONLWriter it takes over w when w
// is an io.Closer: Dump closes it.
func (r *Recorder) Dump(w io.Writer) (int, error) {
	spans := r.Snapshot()
	jw := obs.NewJSONLWriter(w)
	for i := range spans {
		jw.Observe(obs.Envelope{Span: &spans[i]})
	}
	return len(spans), jw.Close()
}

// ServeHTTP serves the flight recorder's dump — the /debug/traces endpoint.
func (r *Recorder) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	if _, err := r.Dump(w); err != nil {
		// The response is already streaming; nothing useful to signal.
		return
	}
}
