// Package span is the request-scoped tracing layer for the serving stack
// and the simulator: deterministic span IDs (derived from session and
// sequence numbers, never randomness), parent links from GC-pause spans to
// the requests that overlapped them, and fixed-cardinality stage timings
// for the full request lifecycle — accept, frame decode, admission-queue
// wait, engine service, response write.
//
// All timestamps are caller-supplied ticks: the live server passes
// nanoseconds since engine start, the simulator passes its simulated I/O
// clock. The package itself never reads a clock, so it is usable from the
// deterministic core, and span dumps from identical runs are byte-identical.
//
// Spans are retained by a Recorder (see recorder.go), a preallocated
// ring-buffer flight recorder with tail-based retention, and serialized as
// versioned JSONL envelopes with the same discipline as the obs event log.
package span

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"odbgc/internal/core"
	"odbgc/internal/obs"
)

// Stage indices into Span.Stages. StageAccept (connection accept to first
// request arrival) is charged only on a session's first span and lies
// outside the span's [Start, End] window; every other stage nests inside it.
const (
	StageAccept = iota
	StageDecode
	StageQueue
	StageService
	StageWrite
	NumStages
)

// stageNames maps stage indices to their wire/metric names.
var stageNames = [NumStages]string{"accept", "decode", "queue", "service", "write"}

// StageName returns the name of stage i ("" when out of range).
func StageName(i int) string {
	if i < 0 || i >= NumStages {
		return ""
	}
	return stageNames[i]
}

// Span kinds.
const (
	KindRequest = "request" // one client request through the serving stack
	KindGC      = "gc"      // one garbage collection, child of the request it overlapped
)

// Span outcomes. Everything but OutcomeOK is always retained by the
// flight recorder.
const (
	OutcomeOK      = "ok"
	OutcomeShed    = "shed"    // refused by admission control
	OutcomeExpired = "expired" // deadline passed while queued; never executed
	OutcomeError   = "error"   // executed and failed (or failed to collect)
	OutcomeClosed  = "closed"  // refused because the server is draining
)

// RequestID derives the deterministic span ID for request seq of session:
// the session number shifted past a 20-bit sequence field. IDs never come
// from a random source, so identical runs trace identically.
func RequestID(session, seq uint64) uint64 {
	return session<<20 | seq&(1<<20-1)
}

// GCID derives the deterministic span ID for the n-th collection: the top
// bit tags the GC ID space so collection spans can never collide with
// request spans.
func GCID(n uint64) uint64 {
	return 1<<63 | n
}

// IsGCID reports whether id lies in the GC span ID space.
func IsGCID(id uint64) bool { return id>>63 == 1 }

// Span is one traced unit of work. Request spans carry per-stage timings;
// GC spans carry collection attribution (what was traced and reclaimed,
// what the estimator said, the breaker state) plus a parent link to the
// request span in whose shadow the collection ran.
type Span struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Kind    string `json:"kind"`
	Op      string `json:"op,omitempty"`
	Outcome string `json:"outcome"`
	Session uint64 `json:"session,omitempty"`
	Seq     uint64 `json:"seq,omitempty"`

	// Start and End are caller-clock ticks (nanoseconds since engine start
	// on the live server, the simulated I/O clock under gcsim).
	Start int64 `json:"start"`
	End   int64 `json:"end"`
	// Stages holds per-stage durations in ticks, indexed by Stage*.
	Stages [NumStages]int64 `json:"stages"`

	// GC attribution (KindGC spans only).
	Partition        int       `json:"partition,omitempty"`
	ReclaimedBytes   int       `json:"reclaimed_bytes,omitempty"`
	ReclaimedObjects int       `json:"reclaimed_objects,omitempty"`
	TracedObjects    int       `json:"traced_objects,omitempty"`
	EstimateFrac     obs.Float `json:"estimate_frac,omitempty"`
	TargetFrac       obs.Float `json:"target_frac,omitempty"`
	Breaker          string    `json:"breaker,omitempty"`
	QueuedBehind     int       `json:"queued_behind,omitempty"`

	// Pinned marks a request span kept alive because a GC span names it as
	// parent; the flight recorder never evicts pinned spans before unpinned
	// ones.
	Pinned bool `json:"pinned,omitempty"`
}

// SpanID returns the span's ID; a nil span (the disabled-recorder fast
// path) has ID 0.
func (sp *Span) SpanID() uint64 {
	if sp == nil {
		return 0
	}
	return sp.ID
}

// SetStage records a stage duration. Nil spans and out-of-range stages are
// ignored, so instrumentation sites need no recorder-enabled branches.
func (sp *Span) SetStage(stage int, ticks int64) {
	if sp == nil || stage < 0 || stage >= NumStages {
		return
	}
	sp.Stages[stage] = ticks
}

// SetCollection fills a KindGC span's attribution fields from the control
// loop's record.
func (sp *Span) SetCollection(c core.Collection) {
	sp.Partition = int(c.Result.Partition)
	sp.ReclaimedBytes = c.Result.ReclaimedBytes
	sp.ReclaimedObjects = c.Result.ReclaimedObjects
	sp.TracedObjects = c.Result.LiveObjects
	sp.EstimateFrac = obs.Float(c.Frac(c.Estimate))
	sp.TargetFrac = obs.Float(c.Frac(c.Target))
}

// Duration returns End-Start (0 for a nil span).
func (sp *Span) Duration() int64 {
	if sp == nil {
		return 0
	}
	return sp.End - sp.Start
}

// validOutcome reports whether o is a known outcome tag.
func validOutcome(o string) bool {
	switch o {
	case OutcomeOK, OutcomeShed, OutcomeExpired, OutcomeError, OutcomeClosed:
		return true
	}
	return false
}

// Check validates one span's internal consistency: a known kind and
// outcome, a nonzero ID in the kind's ID space, monotone timestamps, and
// non-negative stage durations whose in-span sum (everything but the
// pre-span accept stage) fits inside the span's duration.
func (sp *Span) Check() error {
	if sp.ID == 0 {
		return fmt.Errorf("span: zero ID")
	}
	switch sp.Kind {
	case KindRequest:
		if IsGCID(sp.ID) {
			return fmt.Errorf("span %#x: request span with a GC-space ID", sp.ID)
		}
	case KindGC:
		if !IsGCID(sp.ID) {
			return fmt.Errorf("span %#x: gc span outside the GC ID space", sp.ID)
		}
		if sp.Parent != 0 && IsGCID(sp.Parent) {
			return fmt.Errorf("span %#x: gc span parented to another gc span %#x", sp.ID, sp.Parent)
		}
	default:
		return fmt.Errorf("span %#x: unknown kind %q", sp.ID, sp.Kind)
	}
	if !validOutcome(sp.Outcome) {
		return fmt.Errorf("span %#x: unknown outcome %q", sp.ID, sp.Outcome)
	}
	if sp.End < sp.Start {
		return fmt.Errorf("span %#x: end %d before start %d", sp.ID, sp.End, sp.Start)
	}
	var inSpan int64
	for i, d := range sp.Stages {
		if d < 0 {
			return fmt.Errorf("span %#x: negative %s stage %d", sp.ID, StageName(i), d)
		}
		if i != StageAccept {
			inSpan += d
		}
	}
	if sp.Kind == KindRequest && inSpan > sp.End-sp.Start {
		return fmt.Errorf("span %#x: stage sum %d exceeds duration %d", sp.ID, inSpan, sp.End-sp.Start)
	}
	return nil
}

// SchemaVersion is the span envelope schema version; every JSONL line
// carries it.
const SchemaVersion = 1

// TypeSpan is the envelope type tag for a span payload.
const TypeSpan = "span"

// Envelope is one span JSONL line, following the obs event-log discipline:
// schema version, contiguous sequence number, type tag, one payload.
type Envelope struct {
	V    int    `json:"v"`
	Seq  uint64 `json:"seq"`
	Type string `json:"type"`
	Span *Span  `json:"span,omitempty"`
}

// Validate checks the envelope's structural invariants.
func (e *Envelope) Validate() error {
	if e.V != SchemaVersion {
		return fmt.Errorf("span: unknown schema version %d (have %d)", e.V, SchemaVersion)
	}
	if e.Type != TypeSpan {
		return fmt.Errorf("span: unknown envelope type %q", e.Type)
	}
	if e.Span == nil {
		return fmt.Errorf("span: envelope %d carries no span payload", e.Seq)
	}
	return nil
}

// WriteJSONL writes spans as one envelope per line, sequence numbers
// assigned in slice order. The encoding is byte-deterministic for a given
// span slice.
func WriteJSONL(w io.Writer, spans []Span) error {
	bw := bufio.NewWriter(w)
	for i := range spans {
		env := Envelope{V: SchemaVersion, Seq: uint64(i), Type: TypeSpan, Span: &spans[i]}
		b, err := json.Marshal(&env)
		if err != nil {
			return fmt.Errorf("span: encoding span %d: %w", i, err)
		}
		if _, err := bw.Write(b); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadAll decodes and validates a span JSONL dump: every line must carry
// the schema version, the span type tag, a payload, and a contiguous
// sequence number.
func ReadAll(rd io.Reader) ([]*Span, error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var out []*Span
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var env Envelope
		if err := json.Unmarshal(raw, &env); err != nil {
			return out, fmt.Errorf("span: line %d: %w", line, err)
		}
		if err := env.Validate(); err != nil {
			return out, fmt.Errorf("span: line %d: %w", line, err)
		}
		if want := uint64(len(out)); env.Seq != want {
			return out, fmt.Errorf("span: line %d: sequence %d, want %d", line, env.Seq, want)
		}
		out = append(out, env.Span)
	}
	if err := sc.Err(); err != nil {
		return out, fmt.Errorf("span: line %d: %w", line, err)
	}
	return out, nil
}

// CheckAll validates a span dump's integrity: every span passes Check, IDs
// are unique, and GC parent links resolve to request spans. A GC span whose
// parent is absent from the dump is counted as dangling, not an error — a
// mid-load snapshot legitimately misses parents still in flight; a
// post-drain dump should report zero.
func CheckAll(spans []*Span) (dangling int, err error) {
	ids := make(map[uint64]*Span, len(spans))
	for _, sp := range spans {
		if err := sp.Check(); err != nil {
			return dangling, err
		}
		if prev := ids[sp.ID]; prev != nil {
			return dangling, fmt.Errorf("span: duplicate ID %#x", sp.ID)
		}
		ids[sp.ID] = sp
	}
	for _, sp := range spans {
		if sp.Kind != KindGC || sp.Parent == 0 {
			continue
		}
		parent := ids[sp.Parent]
		if parent == nil {
			dangling++
			continue
		}
		if parent.Kind != KindRequest {
			return dangling, fmt.Errorf("span %#x: parent %#x is not a request span", sp.ID, sp.Parent)
		}
	}
	return dangling, nil
}

// errTruncated guards ReadAll misuse surfaces in tests.
var _ = errors.Is
