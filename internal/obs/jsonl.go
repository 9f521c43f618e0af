package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
)

// Float is a float64 whose JSON encoding is total: NaN encodes as null and
// the infinities as the strings "+Inf"/"-Inf", so event lines never fail to
// marshal and identical runs produce identical bytes.
type Float float64

// MarshalJSON implements json.Marshaler.
func (f Float) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsNaN(v):
		return []byte("null"), nil
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	}
	return json.Marshal(v)
}

// UnmarshalJSON implements json.Unmarshaler, accepting the encodings
// MarshalJSON produces.
func (f *Float) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case "null":
		*f = Float(math.NaN())
		return nil
	case `"+Inf"`:
		*f = Float(math.Inf(1))
		return nil
	case `"-Inf"`:
		*f = Float(math.Inf(-1))
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*f = Float(v)
	return nil
}

// Event type tags, one per payload.
const (
	TypeRunStart   = "run_start"
	TypePhase      = "phase"
	TypeDecision   = "decision"
	TypeCollection = "collection"
	TypeProgress   = "progress"
	TypeRunEnd     = "run_end"
	// TypeSpan tags a flight-recorder span; span dumps carry only these,
	// and event logs none.
	TypeSpan = "span"
)

// EventTypes lists every type tag an event log carries.
func EventTypes() []string {
	return []string{TypeRunStart, TypePhase, TypeDecision, TypeCollection,
		TypeProgress, TypeRunEnd}
}

// Envelope is one event: the schema version, a sequence number assigned in
// emission order, the event type tag, and exactly one non-nil payload field
// matching the tag. Drivers set the payload only; JSONLWriter stamps the rest.
type Envelope struct {
	V    int    `json:"v"`
	Seq  uint64 `json:"seq"`
	Type string `json:"type"`

	RunStart   *RunStart    `json:"run_start,omitempty"`
	Phase      *PhaseChange `json:"phase,omitempty"`
	Decision   *Decision    `json:"decision,omitempty"`
	Collection *Collection  `json:"collection,omitempty"`
	Progress   *Progress    `json:"progress,omitempty"`
	RunEnd     *RunEnd      `json:"run_end,omitempty"`
	Span       *Span        `json:"span,omitempty"`
}

// payloadType returns the tag of the payload the envelope carries and how
// many payloads it carries: the one place a payload is paired with its tag.
func (e *Envelope) payloadType() (tag string, n int) {
	for _, p := range [...]struct {
		tag string
		set bool
	}{
		{TypeRunStart, e.RunStart != nil},
		{TypePhase, e.Phase != nil},
		{TypeDecision, e.Decision != nil},
		{TypeCollection, e.Collection != nil},
		{TypeProgress, e.Progress != nil},
		{TypeRunEnd, e.RunEnd != nil},
		{TypeSpan, e.Span != nil},
	} {
		if p.set {
			tag, n = p.tag, n+1
		}
	}
	return tag, n
}

// Validate checks the envelope's structural invariants: a known schema
// version, a known type tag, and a payload that matches the tag.
func (e *Envelope) Validate() error {
	if e.V != SchemaVersion {
		return fmt.Errorf("obs: unknown schema version %d (have %d)", e.V, SchemaVersion)
	}
	if e.Type != TypeSpan && !slices.Contains(EventTypes(), e.Type) {
		return fmt.Errorf("obs: unknown event type %q", e.Type)
	}
	switch tag, n := e.payloadType(); {
	case n > 1:
		return fmt.Errorf("obs: event %d carries %d payloads; want exactly one", e.Seq, n)
	case tag != e.Type:
		return fmt.Errorf("obs: event %d typed %q carries no %q payload", e.Seq, e.Type, e.Type)
	}
	return nil
}

// JSONLWriter is an Observer that appends one JSON object per event to an
// io.Writer. The encoding is versioned (every line carries SchemaVersion)
// and byte-deterministic: identical runs produce identical files because
// every field derives from simulated state and encoding/json writes struct
// fields in declaration order. The writer buffers; call Close before reading
// the output.
type JSONLWriter struct {
	bw  *bufio.Writer
	c   io.Closer // non-nil when the writer owns the underlying file
	seq uint64
	err error // first write error; subsequent events are dropped
}

// NewJSONLWriter wraps w. When w is an io.Closer the writer takes it over:
// Close flushes and then closes w.
func NewJSONLWriter(w io.Writer) *JSONLWriter {
	jw := &JSONLWriter{bw: bufio.NewWriter(w)}
	if c, ok := w.(io.Closer); ok {
		jw.c = c
	}
	return jw
}

// Close flushes and, when the underlying writer is an io.Closer, closes it.
// It returns the first error seen over the writer's whole life: Observe
// cannot return one, so an encoding or write failure is latched until here.
func (w *JSONLWriter) Close() error {
	ferr := w.bw.Flush()
	var cerr error
	if w.c != nil {
		cerr = w.c.Close()
	}
	if w.err != nil {
		return w.err
	}
	if ferr != nil {
		return ferr
	}
	return cerr
}

// Observe implements Observer: it stamps the schema version, the next
// sequence number and the type of the envelope's payload, and writes the
// envelope as one line. An envelope without exactly one payload is latched
// as the writer's error.
func (w *JSONLWriter) Observe(env Envelope) {
	if w.err != nil {
		return
	}
	env.V, env.Seq = SchemaVersion, w.seq
	env.Type, _ = env.payloadType()
	if err := env.Validate(); err != nil {
		w.err = err
		return
	}
	w.seq++
	b, err := json.Marshal(&env)
	if err != nil {
		w.err = fmt.Errorf("obs: encoding event %d: %w", env.Seq, err)
		return
	}
	if _, err := w.bw.Write(b); err != nil {
		w.err = err
		return
	}
	w.err = w.bw.WriteByte('\n')
}

// Reader decodes a JSONL event stream line by line.
type Reader struct {
	sc   *bufio.Scanner
	line int
}

// NewReader wraps r. Lines up to 1 MiB are accepted.
func NewReader(r io.Reader) *Reader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	return &Reader{sc: sc}
}

// Read returns the next event envelope, io.EOF at end of stream, or an
// error describing the offending line. Blank lines are skipped.
func (r *Reader) Read() (*Envelope, error) {
	for r.sc.Scan() {
		r.line++
		// Scanner.Bytes aliases the scan buffer — no per-line copy; Unmarshal
		// copies what the envelope keeps.
		line := bytes.TrimSpace(r.sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var env Envelope
		if err := json.Unmarshal(line, &env); err != nil {
			return nil, fmt.Errorf("obs: line %d: %w", r.line, err)
		}
		return &env, nil
	}
	if err := r.sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: line %d: %w", r.line, err)
	}
	return nil, io.EOF
}

// Line reports the line number of the most recently read event.
func (r *Reader) Line() int { return r.line }

// ReadAll decodes and validates every event in the stream. Sequence numbers
// must start at zero and increase by one; the schema version and type/
// payload pairing of every line must validate.
func ReadAll(rd io.Reader) ([]*Envelope, error) {
	r := NewReader(rd)
	var out []*Envelope
	for {
		env, err := r.Read()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		if err := env.Validate(); err != nil {
			return out, fmt.Errorf("obs: line %d: %w", r.Line(), err)
		}
		if want := uint64(len(out)); env.Seq != want {
			return out, fmt.Errorf("obs: line %d: sequence %d, want %d", r.Line(), env.Seq, want)
		}
		out = append(out, env)
	}
}
