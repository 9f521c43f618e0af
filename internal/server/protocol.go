// Package server is the network-facing front end of the object database:
// many concurrent client sessions create, access, update, and unlink
// objects against a live gc.Heap while the paper's SAIO/SAGA controllers
// run online, fed by the server's own streaming allocation/overwrite
// statistics instead of oracle trace annotations.
//
// The package is built around one robustness spine:
//
//   - admission control: a bounded request queue; requests past the limit
//     are shed immediately with a retry-after hint (simerr.ErrOverloaded),
//     never buffered unboundedly;
//   - deadlines: per-request deadlines, per-session idle timeouts with
//     reaping, and a drain grace period;
//   - a circuit breaker around the garbage estimator that degrades to the
//     coarse fallback on repeated bad signals and recovers via half-open
//     probes;
//   - two-stage shutdown: stop accepting, drain in-flight sessions, flush
//     observability artifacts, then hard-cancel whatever remains.
//
// The wire protocol is deliberately small: length-prefixed JSON frames
// (a big-endian uint32 byte count, then that many bytes of one JSON
// document) over TCP. One request frame yields exactly one response frame.
// encoding/json defines the documents; the frames of the op mix are written
// and read by a typed codec (codec.go) that produces and accepts the same
// bytes, so any JSON client works. A frame leaves in one write, and each
// end of a connection reads through one buffer.
package server

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
)

// MaxFrameBytes bounds a single frame's payload. Anything larger is
// rejected before allocation, so a hostile length prefix cannot make the
// server reserve gigabytes.
const MaxFrameBytes = 64 * 1024

// Request ops.
const (
	OpPing   = "ping"   // liveness probe; echoes ok
	OpCreate = "create" // allocate an object (Size bytes, Slots pointer slots, at most disk.MaxSlots); auto-rooted
	OpAccess = "access" // read an object (application read I/O)
	OpUpdate = "update" // non-pointer write to an object
	OpSet    = "set"    // pointer overwrite: OID's slot Slot now points at Dst (0 = nil)
	OpRoot   = "root"   // pin an object in the persistent root set
	OpUnroot = "unroot" // unpin; an unlinked object becomes garbage
	OpStats  = "stats"  // server/database statistics snapshot
)

// Response statuses.
const (
	StatusOK     = "ok"
	StatusError  = "error"  // the op failed; Error carries the reason
	StatusShed   = "shed"   // admission control refused the request; retry later
	StatusClosed = "closed" // the server is draining; open a new connection elsewhere
)

// Request is one client frame.
type Request struct {
	ID    uint64 `json:"id"`
	Op    string `json:"op"`
	OID   uint64 `json:"oid,omitempty"`
	Size  int    `json:"size,omitempty"`
	Slots int    `json:"slots,omitempty"`
	Slot  int    `json:"slot,omitempty"`
	Dst   uint64 `json:"dst,omitempty"`
}

// Stats is the payload of an OpStats response: enough of the live heap and
// controller state for a client (or the smoke test) to see the online GC
// working.
type Stats struct {
	Objects        int    `json:"objects"`
	DBBytes        int    `json:"db_bytes"`
	Partitions     int    `json:"partitions"`
	Roots          int    `json:"roots"`
	OverwriteClock uint64 `json:"overwrite_clock"`
	Collections    uint64 `json:"collections"`
	ReclaimedBytes uint64 `json:"reclaimed_bytes"`
	AppIO          uint64 `json:"app_io"`
	GCIO           uint64 `json:"gc_io"`
	Policy         string `json:"policy"`
	BreakerState   string `json:"breaker_state,omitempty"`
	QueueLen       int    `json:"queue_len"`
	QueueDepth     int    `json:"queue_depth"`
}

// Response is one server frame.
type Response struct {
	ID     uint64 `json:"id"`
	Status string `json:"status"`
	OID    uint64 `json:"oid,omitempty"` // assigned OID for create
	Old    uint64 `json:"old,omitempty"` // previous slot value for set
	Error  string `json:"error,omitempty"`
	// RetryAfterMs accompanies StatusShed: the server's estimate of when
	// capacity will free up, derived from observed service times and the
	// queue bound.
	RetryAfterMs int `json:"retry_after_ms,omitempty"`
	// QueueUs and ServiceUs report where an admitted request's time went,
	// in microseconds of engine clock: admission-queue wait and engine
	// service. Present whether or not tracing is enabled, so load drivers
	// can break latency down without a recorder.
	QueueUs   int64 `json:"queue_us,omitempty"`
	ServiceUs int64 `json:"service_us,omitempty"`
	// Expired marks a request whose deadline passed while it sat in the
	// admission queue; the op never executed.
	Expired bool   `json:"expired,omitempty"`
	Stats   *Stats `json:"stats,omitempty"`
}

// WriteFrame encodes v and writes it as one length-prefixed frame with a
// single Write. Header and payload leave together because TCP_NODELAY makes
// a header written on its own a segment of its own, and a wake-up of its
// own for the reader.
func WriteFrame(w io.Writer, v any) error {
	bp := frameBufs.Get().(*[]byte)
	err := writeFrame(w, bp, v)
	frameBufs.Put(bp)
	return err
}

// ReadFrame reads one length-prefixed frame into v. A declared length past
// MaxFrameBytes or a payload that is not valid JSON returns an error
// wrapping errMalformed, which the session layer counts and treats as
// fatal for the connection (the frame boundary is lost).
func ReadFrame(r io.Reader, v any) error {
	_, _, err := ReadFrameTimed(r, v, nil)
	return err
}

// ReadFrameTimed is ReadFrame with stage timing for the tracing layer: when
// now is non-nil, arrival is the tick at which the frame's length header
// had fully arrived (the request observably exists) and decoded the tick
// after JSON decoding — their difference is the span's decode stage. A nil
// now skips the clock reads and returns zero ticks.
func ReadFrameTimed(r io.Reader, v any, now func() int64) (arrival, decoded int64, err error) {
	bp := frameBufs.Get().(*[]byte)
	arrival, decoded, err = readFrame(r, bp, v, now)
	frameBufs.Put(bp)
	return arrival, decoded, err
}

// frameBufBytes is a frame buffer's first size: room for any frame of the
// op mix. A Stats response or a long error text grows the buffer.
const frameBufBytes = 512

// frameBufs lends WriteFrame and ReadFrame, which have no connection to
// keep one on, the buffer a frame is assembled in or read into.
var frameBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, frameBufBytes)
	return &b
}}

// appendFrame appends v's frame to dst: the 4-byte length, then the JSON
// document. The typed encoder writes the document when it can; what it
// declines goes through json.Marshal, whose bytes the typed encoder's are.
func appendFrame(dst []byte, v any) ([]byte, error) {
	head := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	f, flat := v.(flatEncoder)
	if flat {
		dst, flat = f.appendFlat(dst)
	}
	if !flat {
		b, err := json.Marshal(v)
		if err != nil {
			return dst[:head], fmt.Errorf("server: encoding frame: %w", err)
		}
		dst = append(dst[:head+4], b...)
	}
	n := len(dst) - head - 4
	if n > MaxFrameBytes {
		return dst[:head], fmt.Errorf("server: frame of %d bytes exceeds limit %d", n, MaxFrameBytes)
	}
	binary.BigEndian.PutUint32(dst[head:], uint32(n))
	return dst, nil
}

// writeFrame assembles v's frame in *buf (grown when a frame needs it) and
// writes it to w.
func writeFrame(w io.Writer, buf *[]byte, v any) error {
	b, err := appendFrame((*buf)[:0], v)
	if err != nil {
		return err
	}
	*buf = b
	_, err = w.Write(b)
	return err
}

// readFrame reads one frame from r into v, using *buf (grown when a frame
// needs it) for the header and then the payload. Nothing in v refers to
// *buf afterwards.
func readFrame(r io.Reader, buf *[]byte, v any, now func() int64) (arrival, decoded int64, err error) {
	hdr := (*buf)[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, 0, err
	}
	if now != nil {
		arrival = now()
	}
	n := binary.BigEndian.Uint32(hdr)
	if n == 0 || n > MaxFrameBytes {
		return arrival, arrival, fmt.Errorf("%w: declared length %d outside (0,%d]", errMalformed, n, MaxFrameBytes)
	}
	if uint32(cap(*buf)) < n {
		*buf = make([]byte, n)
	}
	b := (*buf)[:n]
	if _, err := io.ReadFull(r, b); err != nil {
		return arrival, arrival, err
	}
	if f, ok := v.(flatDecoder); !ok || !f.decodeFlat(b) {
		if err := json.Unmarshal(b, v); err != nil {
			return arrival, arrival, fmt.Errorf("%w: %v", errMalformed, err)
		}
	}
	if now != nil {
		decoded = now()
	}
	return arrival, decoded, nil
}

// framer is one end of a connection's frame traffic: every frame leaves in
// one Write, and frames are read through one buffered reader, so a frame
// that arrived in one segment costs one read. Requests and responses
// alternate, so one buffer, reused, holds the frame being written or the
// payload being decoded. Deadlines are set on conn, which the reader wraps,
// and interrupt a read blocked inside it.
type framer struct {
	conn net.Conn
	br   *bufio.Reader
	buf  []byte
}

func newFramer(conn net.Conn) framer {
	return framer{conn: conn, br: bufio.NewReader(conn), buf: make([]byte, 0, frameBufBytes)}
}

func (f *framer) write(v any) error { return writeFrame(f.conn, &f.buf, v) }

func (f *framer) read(v any, now func() int64) (arrival, decoded int64, err error) {
	return readFrame(f.br, &f.buf, v, now)
}

// errMalformed tags protocol violations (bad length prefix, non-JSON
// payload) so the session layer can distinguish hostile bytes from plain
// disconnects.
var errMalformed = errors.New("server: malformed frame")

// IsMalformed reports whether err is a protocol violation rather than an
// I/O failure.
func IsMalformed(err error) bool {
	return errors.Is(err, errMalformed)
}
