package trace

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"odbgc/internal/objstore"
	"odbgc/internal/simerr"
)

// Binary trace format
//
//	magic   "ODBT" (4 bytes)
//	version uint16 (little endian)
//	events  repeated, each:
//	    kind   uint8
//	    fields varint-encoded per kind (see Writer.Write)
//	trailer kind byte 0xFF
//
// oo7gen writes it; gcsim, tracedump and the odbgc facade read it.

var magic = [4]byte{'O', 'D', 'B', 'T'}

const (
	formatVersion uint16 = 1
	trailerByte   byte   = 0xFF
)

// ErrTruncated reports that a binary stream ended before its 0xFF trailer:
// either cleanly between events or mid-event. Callers distinguish it from
// other decode errors with errors.Is; ReadAllLenient returns the prefix
// before the cut instead. It carries simerr.ErrCorruptTrace so batch
// supervisors and the obs layer classify it without importing this package.
var ErrTruncated = fmt.Errorf("%w: truncated stream (missing trailer)", simerr.ErrCorruptTrace)

// Writer streams events to an io.Writer in the binary format. Close must be
// called to emit the trailer and flush buffered data.
type Writer struct {
	w      io.Writer
	buf    []byte // encoded, not yet written
	count  int
	closed bool
	err    error
}

// NewWriter writes the header and returns a Writer.
func NewWriter(w io.Writer) (*Writer, error) {
	buf := append(make([]byte, 0, 2*window), magic[:]...)
	return &Writer{w: w, buf: binary.LittleEndian.AppendUint16(buf, formatVersion)}, nil
}

// Write appends one event; one of an unknown kind leaves nothing behind.
func (w *Writer) Write(e *Event) error {
	if w.closed {
		return errors.New("trace: write after Close")
	}
	if w.err != nil {
		return w.err
	}
	b := append(w.buf, byte(e.Kind))
	switch e.Kind {
	case KindCreate:
		b = append(binary.AppendUvarint(b, uint64(e.OID)), byte(e.Class))
		b = binary.AppendUvarint(binary.AppendUvarint(b, uint64(e.Size)), uint64(e.Slots))
	case KindAccess, KindUpdate:
		b = binary.AppendUvarint(b, uint64(e.OID))
	case KindOverwrite:
		b = binary.AppendUvarint(binary.AppendUvarint(b, uint64(e.OID)), uint64(e.Slot))
		b = binary.AppendUvarint(binary.AppendUvarint(b, uint64(e.Old)), uint64(e.New))
		var flags byte
		if e.Init {
			flags |= 1
		}
		b = binary.AppendUvarint(append(b, flags), uint64(len(e.DeadObjects())))
		for _, d := range e.DeadObjects() {
			b = binary.AppendUvarint(binary.AppendUvarint(b, uint64(d.OID)), uint64(d.Size))
		}
	case KindPhase:
		label := e.Label.String()
		b = append(binary.AppendUvarint(b, uint64(len(label))), label...)
	case KindRoot:
		b = binary.AppendUvarint(binary.AppendUvarint(b, uint64(e.OID)), uint64(e.Size))
	case KindIdle:
		b = binary.AppendUvarint(b, uint64(e.Size))
	default:
		return fmt.Errorf("trace: cannot encode event kind %d", e.Kind)
	}
	w.buf = b
	w.count++
	if len(w.buf) >= window {
		w.flush()
	}
	return w.err
}

// flush writes the buffered bytes; a failure sticks.
func (w *Writer) flush() {
	if w.err == nil {
		_, w.err = w.w.Write(w.buf)
	}
	w.buf = w.buf[:0]
}

// Count returns the number of events written so far.
func (w *Writer) Count() int { return w.count }

// Close writes the trailer and flushes. The underlying writer is not closed.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	w.buf = append(w.buf, trailerByte)
	w.flush()
	return w.err
}

// window is what the Writer buffers and the size of the Reader's window.
const window = 1 << 16

// errShort reports that the bytes at hand end inside the event being decoded.
var errShort = errors.New("trace: event runs past the bytes at hand")

// decoder is the format's one event decoder, over bytes in memory: a whole
// stream for ReadAll, a Reader's window.
type decoder struct {
	p     []byte     // the bytes at hand
	off   int        // p[:off] is decoded
	err   error      // the first failure in the event being decoded
	dead  *deadArena // backs the lists; nil counts them and sets no list or label
	ndead int        // dead-list entries decoded or counted
}

// uvarint decodes one varint; one of a single byte without a call.
func (d *decoder) uvarint() uint64 {
	if i := d.off; i < len(d.p) && d.p[i] < 0x80 {
		d.off++
		return uint64(d.p[i])
	}
	return d.longUvarint()
}

func (d *decoder) longUvarint() uint64 {
	v, n := binary.Uvarint(d.p[d.off:])
	switch {
	case d.err != nil:
	case n == 0:
		d.err = errShort
	case n < 0:
		d.err = errors.New("binary: varint overflows a 64-bit integer")
	default:
		d.off += n
		return v
	}
	return 0
}

func (d *decoder) byteVal() byte {
	if d.off < len(d.p) {
		d.off++
		return d.p[d.off-1]
	}
	d.err = cmp.Or(d.err, errShort)
	return 0
}

// event decodes the next event into e. It returns io.EOF after the trailer,
// errShort, consuming nothing, when the bytes end inside the event, and
// another error for bytes no Writer produces.
func (d *decoder) event(e *Event) error {
	start := d.off
	if start == len(d.p) {
		return errShort
	}
	kb := d.p[start]
	d.off++
	e.Kind = Kind(kb)
	switch e.Kind {
	case KindCreate:
		e.OID = objstore.OID(d.uvarint())
		e.Class = objstore.Class(d.byteVal())
		e.Size = int(d.uvarint())
		e.Slots = int(d.uvarint())
	case KindAccess, KindUpdate:
		e.OID = objstore.OID(d.uvarint())
	case KindOverwrite:
		e.OID = objstore.OID(d.uvarint())
		e.Slot = int(d.uvarint())
		e.Old = objstore.OID(d.uvarint())
		e.New = objstore.OID(d.uvarint())
		e.Init = d.byteVal()&1 != 0
		if n := d.uvarint(); d.err == nil && n > 1<<24 {
			return fmt.Errorf("trace: implausible dead-list length %d", n)
		} else if d.err == nil && n > 0 {
			e.Dead = d.deadList(int(n))
		}
	case KindPhase:
		if n := d.uvarint(); d.err == nil && n > 1<<16 {
			return fmt.Errorf("trace: implausible phase label length %d", n)
		} else if d.err == nil && int(n) > len(d.p)-d.off {
			d.err = errShort
		} else if d.off += int(n); d.err == nil && d.dead != nil {
			e.Label, d.err = labelOf(d.p[d.off-int(n):d.off], true)
		}
	case KindRoot:
		e.OID = objstore.OID(d.uvarint())
		e.Size = int(d.uvarint())
	case KindIdle:
		e.Size = int(d.uvarint())
	case Kind(trailerByte):
		return io.EOF
	default:
		return fmt.Errorf("trace: unknown event kind byte %d", kb)
	}
	err := d.err
	d.err = nil
	if errors.Is(err, errShort) {
		d.off = start
	} else if err != nil {
		err = fmt.Errorf("trace: decoding %v event: %w", e.Kind, err)
	}
	return err
}

// deadList decodes n dead-list entries. Each takes two bytes at least, so a
// count the bytes at hand cannot back is walked, never sized: the walk ends
// in errShort or a decode error.
func (d *decoder) deadList(n int) []DeadObject {
	var list []DeadObject
	if d.dead != nil && n <= (len(d.p)-d.off)/2 {
		list = d.dead.room(n)
	}
	for i := 0; i < n && d.err == nil; i++ {
		if oid, size := d.uvarint(), d.uvarint(); list != nil {
			list[i] = DeadObject{OID: objstore.OID(oid), Size: int(size)}
		}
	}
	if d.err == nil {
		d.ndead += n
		if list != nil {
			d.dead.take(n)
		}
	}
	return list
}

// Reader streams events from the binary format. It decodes from a window of
// the stream it refills, doubled only for an event longer than the window.
type Reader struct {
	src    io.Reader
	d      decoder // over the window
	srcErr error   // why src gave no more bytes: io.EOF at its end
	done   bool
	dead   deadArena // backs the decoded events' Dead lists
}

// NewReader validates the header and returns a Reader.
func NewReader(r io.Reader) (*Reader, error) {
	var hdr [6]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if [4]byte(hdr[:4]) != magic {
		return nil, errors.New("trace: bad magic (not a trace file)")
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != formatVersion {
		return nil, fmt.Errorf("trace: unsupported format version %d", v)
	}
	rd := &Reader{src: r}
	rd.d.dead = &rd.dead
	return rd, nil
}

// Read returns the next event, or io.EOF after the trailer.
func (r *Reader) Read() (Event, error) {
	var e Event
	for !r.done {
		switch err := r.d.event(&e); {
		case err == nil:
			return e, nil
		case errors.Is(err, io.EOF):
			r.done = true
		case !errors.Is(err, errShort):
			return Event{}, err
		case errors.Is(r.srcErr, io.EOF):
			// The stream was cut; the Reader is finished.
			r.done = true
			return Event{}, errCut
		case r.srcErr != nil:
			return Event{}, fmt.Errorf("trace: reading: %w", r.srcErr)
		default:
			r.fill()
		}
	}
	return Event{}, io.EOF
}

// fill moves the undecoded bytes to the front of the window, doubles a
// window they fill, and reads until it is full or the stream ends: an event
// is decoded from its start again after a fill, so a partial fill could
// make a long one cost its length squared.
func (r *Reader) fill() {
	d := &r.d
	d.p, d.off = d.p[:copy(d.p, d.p[d.off:])], 0
	if len(d.p) == cap(d.p) {
		d.p = slices.Grow(d.p, max(cap(d.p), window))
	}
	n, err := io.ReadFull(r.src, d.p[len(d.p):cap(d.p)])
	d.p = d.p[:len(d.p)+n]
	if errors.Is(err, io.ErrUnexpectedEOF) {
		err = io.EOF
	}
	r.srcErr = err
}

// errCut is the error of a strict read of a stream cut short.
var errCut = fmt.Errorf("%w: %w", ErrTruncated, io.ErrUnexpectedEOF)

// ReadAll decodes an entire stream into a Trace.
func ReadAll(r io.Reader) (*Trace, error) {
	t, _, _, err := readAll(r, false)
	return t, err
}

// ReadAllLenient decodes a possibly-truncated stream. Of a stream cut short
// it keeps the events up to the last that does not build (Event.Builds), so
// the prefix ends where a simulator could collect, and counts the dropped
// build events. Errors other than truncation are returned as-is.
func ReadAllLenient(r io.Reader) (t *Trace, truncated bool, dropped int, err error) {
	return readAll(r, true)
}

// readAll reads the stream whole and counts its events and dead-list
// entries, then allocates the events and the lists' backing once, each
// exactly sized, and decodes every event in place.
func readAll(r io.Reader, lenient bool) (*Trace, bool, int, error) {
	if _, err := NewReader(r); err != nil {
		return nil, false, 0, err
	}
	in := bytes.NewBuffer(nil)
	if l, ok := r.(interface{ Len() int }); ok { // not in.Grow: with -race it allocates twice
		in = bytes.NewBuffer(make([]byte, 0, l.Len()+bytes.MinRead)) // ReadFrom wants MinRead spare bytes
	}
	if _, err := in.ReadFrom(r); err != nil {
		return nil, false, 0, fmt.Errorf("trace: reading: %w", err)
	}
	count := decoder{p: in.Bytes()}
	var scratch Event
	n, safe, err := 0, 0, count.event(&scratch)
	for ; err == nil; err = count.event(&scratch) {
		if n++; !scratch.Builds() {
			safe = n
		}
	}
	truncated, dropped := errors.Is(err, errShort), 0
	switch {
	case errors.Is(err, io.EOF):
	case truncated && lenient:
		n, dropped = safe, n-safe
	case truncated:
		return nil, true, 0, errCut
	default:
		return nil, false, 0, err
	}
	events := make([]Event, n)
	d := decoder{p: in.Bytes(), dead: &deadArena{free: make([]DeadObject, count.ndead)}}
	for i := range events {
		if err := d.event(&events[i]); err != nil {
			return nil, truncated, dropped, err
		}
	}
	return &Trace{Events: events}, truncated, dropped, nil
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
