package trace

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"odbgc/internal/objstore"
	"odbgc/internal/simerr"
)

// Binary trace format
//
//	magic   "ODBT" (4 bytes)
//	version uint16 (little endian)
//	events  repeated, each:
//	    kind   uint8
//	    fields varint-encoded per kind (see encodeEvent)
//	trailer kind byte 0xFF
//
// The binary codec is the production format: compact and fast. A JSON-lines
// codec is also provided for debugging and interchange.

var magic = [4]byte{'O', 'D', 'B', 'T'}

const (
	formatVersion uint16 = 1
	trailerByte   byte   = 0xFF
)

// ErrTruncated reports that a binary stream ended before its 0xFF trailer:
// either cleanly between events or mid-event. Callers distinguish it from
// other decode errors with errors.Is; a lenient Reader converts it into a
// normal end of stream after yielding every complete event. It carries
// simerr.ErrCorruptTrace so batch supervisors and the obs layer classify it
// without importing this package's sentinel.
var ErrTruncated = fmt.Errorf("%w: truncated stream (missing trailer)", simerr.ErrCorruptTrace)

// Writer streams events to an io.Writer in the binary format. Close must be
// called to emit the trailer and flush buffered data.
type Writer struct {
	bw     *bufio.Writer
	tmp    [binary.MaxVarintLen64]byte
	count  int
	closed bool
	err    error
}

// NewWriter writes the header and returns a Writer.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(magic[:]); err != nil {
		return nil, fmt.Errorf("trace: writing magic: %w", err)
	}
	var v [2]byte
	binary.LittleEndian.PutUint16(v[:], formatVersion)
	if _, err := bw.Write(v[:]); err != nil {
		return nil, fmt.Errorf("trace: writing version: %w", err)
	}
	return &Writer{bw: bw}, nil
}

func (w *Writer) uvarint(x uint64) {
	if w.err != nil {
		return
	}
	n := binary.PutUvarint(w.tmp[:], x)
	_, w.err = w.bw.Write(w.tmp[:n])
}

func (w *Writer) byteVal(b byte) {
	if w.err != nil {
		return
	}
	w.err = w.bw.WriteByte(b)
}

func (w *Writer) stringVal(s string) {
	w.uvarint(uint64(len(s)))
	if w.err != nil {
		return
	}
	_, w.err = w.bw.WriteString(s)
}

// Write appends one event.
func (w *Writer) Write(e *Event) error {
	if w.closed {
		return errors.New("trace: write after Close")
	}
	if w.err != nil {
		return w.err
	}
	w.byteVal(byte(e.Kind))
	switch e.Kind {
	case KindCreate:
		w.uvarint(uint64(e.OID))
		w.byteVal(byte(e.Class))
		w.uvarint(uint64(e.Size))
		w.uvarint(uint64(e.Slots))
	case KindAccess, KindUpdate:
		w.uvarint(uint64(e.OID))
	case KindOverwrite:
		w.uvarint(uint64(e.OID))
		w.uvarint(uint64(e.Slot))
		w.uvarint(uint64(e.Old))
		w.uvarint(uint64(e.New))
		var flags byte
		if e.Init {
			flags |= 1
		}
		w.byteVal(flags)
		w.uvarint(uint64(len(e.Dead)))
		for _, d := range e.Dead {
			w.uvarint(uint64(d.OID))
			w.uvarint(uint64(d.Size))
		}
	case KindPhase:
		w.stringVal(e.Label)
	case KindRoot:
		w.uvarint(uint64(e.OID))
		w.uvarint(uint64(e.Size))
	case KindIdle:
		w.uvarint(uint64(e.Size))
	default:
		return fmt.Errorf("trace: cannot encode event kind %d", e.Kind)
	}
	if w.err == nil {
		w.count++
	}
	return w.err
}

// Count returns the number of events written so far.
func (w *Writer) Count() int { return w.count }

// Close writes the trailer and flushes. The underlying writer is not closed.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	w.byteVal(trailerByte)
	if w.err != nil {
		return w.err
	}
	return w.bw.Flush()
}

// Reader streams events from the binary format.
type Reader struct {
	br   *bufio.Reader
	done bool

	// dead backs the decoded events' Dead lists.
	dead deadArena
	// labelBuf is the scratch buffer phase labels are read into before the
	// (unavoidable) string conversion.
	labelBuf []byte

	// Lenient, when set before reading, makes truncation non-fatal: a stream
	// that ends without its trailer (cleanly between events or mid-event)
	// yields the events read so far and then io.EOF instead of ErrTruncated.
	// Truncated() reports whether that happened. Decode errors other than
	// truncation (bad kinds, implausible lengths) remain fatal.
	Lenient bool

	truncated bool
}

// Truncated reports whether a lenient Reader hit end of stream without the
// trailer. It is meaningful once Read has returned io.EOF.
func (r *Reader) Truncated() bool { return r.truncated }

// NewReader validates the header and returns a Reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [6]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if hdr[0] != magic[0] || hdr[1] != magic[1] || hdr[2] != magic[2] || hdr[3] != magic[3] {
		return nil, errors.New("trace: bad magic (not a trace file)")
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != formatVersion {
		return nil, fmt.Errorf("trace: unsupported format version %d", v)
	}
	return &Reader{br: br}, nil
}

func (r *Reader) uvarint() (uint64, error) {
	return binary.ReadUvarint(r.br)
}

// Read returns the next event, or io.EOF after the trailer.
func (r *Reader) Read() (Event, error) {
	var e Event
	if r.done {
		return e, io.EOF
	}
	kb, err := r.br.ReadByte()
	if err != nil {
		if errors.Is(err, io.EOF) {
			// Clean event boundary, but no trailer: the stream was cut.
			return e, r.truncation()
		}
		return e, err
	}
	if kb == trailerByte {
		r.done = true
		return e, io.EOF
	}
	e.Kind = Kind(kb)
	rd := func() uint64 {
		if err != nil {
			return 0
		}
		var v uint64
		v, err = r.uvarint()
		return v
	}
	switch e.Kind {
	case KindCreate:
		e.OID = objstore.OID(rd())
		var cb byte
		if err == nil {
			cb, err = r.br.ReadByte()
		}
		e.Class = objstore.Class(cb)
		e.Size = int(rd())
		e.Slots = int(rd())
	case KindAccess, KindUpdate:
		e.OID = objstore.OID(rd())
	case KindOverwrite:
		e.OID = objstore.OID(rd())
		e.Slot = int(rd())
		e.Old = objstore.OID(rd())
		e.New = objstore.OID(rd())
		var flags byte
		if err == nil {
			flags, err = r.br.ReadByte()
		}
		e.Init = flags&1 != 0
		n := rd()
		if err == nil && n > 0 {
			if n > 1<<24 {
				return e, fmt.Errorf("trace: implausible dead-list length %d", n)
			}
			// The count is a claim until its entries arrive: the list starts
			// in the arena, at most one chunk ahead of the bytes read, and a
			// longer one grows by append as entries actually decode.
			e.Dead = r.dead.alloc(min(int(n), deadArenaChunk))[:0]
			for i := uint64(0); i < n && err == nil; i++ {
				e.Dead = append(e.Dead, DeadObject{OID: objstore.OID(rd()), Size: int(rd())})
			}
		}
	case KindPhase:
		n := rd()
		if err == nil {
			if n > 1<<16 {
				return e, fmt.Errorf("trace: implausible phase label length %d", n)
			}
			if cap(r.labelBuf) < int(n) {
				//lint:allow hotpath label scratch grows to the longest label once
				r.labelBuf = make([]byte, n)
			}
			buf := r.labelBuf[:n]
			_, err = io.ReadFull(r.br, buf)
			//lint:allow hotpath phase labels are rare (one per phase) and must be immutable strings
			e.Label = string(buf)
		}
	case KindRoot:
		e.OID = objstore.OID(rd())
		e.Size = int(rd())
	case KindIdle:
		e.Size = int(rd())
	default:
		return e, fmt.Errorf("trace: unknown event kind byte %d", kb)
	}
	if err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			// The stream ended inside an event: truncation. In lenient mode
			// the partial event is discarded and the stream ends normally.
			return Event{}, r.truncation()
		}
		return e, fmt.Errorf("trace: decoding %v event: %w", e.Kind, err)
	}
	return e, nil
}

// truncation converts an end-of-stream-without-trailer condition into the
// mode-appropriate result: io.EOF when lenient, ErrTruncated otherwise.
// Either way the Reader is finished.
func (r *Reader) truncation() error {
	r.done = true
	r.truncated = true
	if r.Lenient {
		return io.EOF
	}
	return fmt.Errorf("%w: %w", ErrTruncated, io.ErrUnexpectedEOF)
}

// ReadAll decodes an entire stream into a Trace.
func ReadAll(r io.Reader) (*Trace, error) {
	t, _, err := readAll(r, false)
	return t, err
}

// ReadAllLenient decodes a possibly-truncated stream, returning every
// complete event read before the cut. The second result reports whether the
// stream was in fact truncated. Errors other than truncation are returned
// as-is.
func ReadAllLenient(r io.Reader) (*Trace, bool, error) {
	return readAll(r, true)
}

func readAll(r io.Reader, lenient bool) (*Trace, bool, error) {
	tr, err := NewReader(r)
	if err != nil {
		return nil, false, err
	}
	tr.Lenient = lenient
	var b Builder
	for {
		e, err := tr.Read()
		if errors.Is(err, io.EOF) {
			return b.Trace(), tr.Truncated(), nil
		}
		if err != nil {
			return nil, tr.Truncated(), err
		}
		b.Append(e)
	}
}

// WriteAll encodes an entire Trace to w.
func WriteAll(w io.Writer, t *Trace) error {
	tw, err := NewWriter(w)
	if err != nil {
		return err
	}
	for i := range t.Events {
		if err := tw.Write(&t.Events[i]); err != nil {
			return err
		}
	}
	return tw.Close()
}

// jsonEvent mirrors Event with stable JSON field names for the text codec.
type jsonEvent struct {
	Kind  string           `json:"kind"`
	OID   uint64           `json:"oid,omitempty"`
	Class uint8            `json:"class,omitempty"`
	Size  int              `json:"size,omitempty"`
	Slots int              `json:"slots,omitempty"`
	Slot  int              `json:"slot,omitempty"`
	Old   uint64           `json:"old,omitempty"`
	New   uint64           `json:"new,omitempty"`
	Label string           `json:"label,omitempty"`
	Init  bool             `json:"init,omitempty"`
	Dead  []jsonDeadObject `json:"dead,omitempty"`
}

type jsonDeadObject struct {
	OID  uint64 `json:"oid"`
	Size int    `json:"size"`
}

var kindFromName = func() map[string]Kind {
	m := make(map[string]Kind, len(kindNames))
	for k, n := range kindNames {
		m[n] = k
	}
	return m
}()

// WriteJSON encodes the trace as JSON lines (one event per line).
func WriteJSON(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range t.Events {
		e := &t.Events[i]
		je := jsonEvent{
			Kind:  e.Kind.String(),
			OID:   uint64(e.OID),
			Class: uint8(e.Class),
			Size:  e.Size,
			Slots: e.Slots,
			Slot:  e.Slot,
			Old:   uint64(e.Old),
			New:   uint64(e.New),
			Label: e.Label,
			Init:  e.Init,
		}
		for _, d := range e.Dead {
			je.Dead = append(je.Dead, jsonDeadObject{OID: uint64(d.OID), Size: d.Size})
		}
		if err := enc.Encode(&je); err != nil {
			return fmt.Errorf("trace: encoding JSON event %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// ReadJSON decodes a JSON-lines trace.
func ReadJSON(r io.Reader) (*Trace, error) {
	dec := json.NewDecoder(bufio.NewReader(r))
	var b Builder
	// One decode target reused across the stream; Decode only sets fields
	// present in the line, so it is cleared each iteration.
	var je jsonEvent
	for i := 0; ; i++ {
		je = jsonEvent{}
		if err := dec.Decode(&je); errors.Is(err, io.EOF) {
			return b.Trace(), nil
		} else if err != nil {
			return nil, fmt.Errorf("trace: decoding JSON event %d: %w", i, err)
		}
		k, ok := kindFromName[je.Kind]
		if !ok {
			return nil, fmt.Errorf("trace: JSON event %d has unknown kind %q", i, je.Kind)
		}
		e := Event{
			Kind:  k,
			OID:   objstore.OID(je.OID),
			Class: objstore.Class(je.Class),
			Size:  je.Size,
			Slots: je.Slots,
			Slot:  je.Slot,
			Old:   objstore.OID(je.Old),
			New:   objstore.OID(je.New),
			Label: je.Label,
			Init:  je.Init,
		}
		if len(je.Dead) > 0 {
			e.Dead = b.Dead(len(je.Dead))
			for i, d := range je.Dead {
				e.Dead[i] = DeadObject{OID: objstore.OID(d.OID), Size: d.Size}
			}
		}
		b.Append(e)
	}
}
