package server

import (
	"math"
	"strconv"
)

// The typed frame codec. encoding/json defines the wire format; this file
// writes and reads the frames the op mix is made of — a Request or a
// Response that is a flat object of numbers, a bool and strings needing no
// escape — with no reflection and no allocation, and declines everything
// else to encoding/json: a Stats payload, a string json.Marshal would
// escape, and on the way in any byte the strict grammar below does not
// expect (whitespace, an unknown or oddly-cased key, an escape, null, a
// fraction, an exponent, a number out of range). Declining is always safe:
// the encoder's bytes are json.Marshal's bytes and the decoder accepts only
// documents json.Unmarshal decodes to the same value, so a peer cannot tell
// which path ran. FuzzFrameCodec holds both halves to that.

// flatEncoder is a frame value the typed encoder knows. appendFlat appends
// exactly json.Marshal's bytes to dst, or reports false (dst then holds
// nothing the caller may keep past its old length).
type flatEncoder interface {
	appendFlat(dst []byte) ([]byte, bool)
}

// flatDecoder is a frame target the typed decoder knows. decodeFlat sets
// the receiver exactly as json.Unmarshal(b, receiver) would and reports
// true, or leaves it untouched and reports false.
type flatDecoder interface {
	decodeFlat(b []byte) bool
}

func (r Request) appendFlat(dst []byte) ([]byte, bool) {
	if !marshalsPlain(r.Op) {
		return dst, false
	}
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendUint(dst, r.ID, 10)
	dst = append(dst, `,"op":"`...)
	dst = append(dst, r.Op...)
	dst = append(dst, '"')
	dst = appendUintField(dst, `,"oid":`, r.OID)
	dst = appendIntField(dst, `,"size":`, int64(r.Size))
	dst = appendIntField(dst, `,"slots":`, int64(r.Slots))
	dst = appendIntField(dst, `,"slot":`, int64(r.Slot))
	dst = appendUintField(dst, `,"dst":`, r.Dst)
	return append(dst, '}'), true
}

func (r Response) appendFlat(dst []byte) ([]byte, bool) {
	if r.Stats != nil || !marshalsPlain(r.Status) || !marshalsPlain(r.Error) {
		return dst, false
	}
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendUint(dst, r.ID, 10)
	dst = append(dst, `,"status":"`...)
	dst = append(dst, r.Status...)
	dst = append(dst, '"')
	dst = appendUintField(dst, `,"oid":`, r.OID)
	dst = appendUintField(dst, `,"old":`, r.Old)
	if r.Error != "" {
		dst = append(dst, `,"error":"`...)
		dst = append(dst, r.Error...)
		dst = append(dst, '"')
	}
	dst = appendIntField(dst, `,"retry_after_ms":`, int64(r.RetryAfterMs))
	dst = appendIntField(dst, `,"queue_us":`, r.QueueUs)
	dst = appendIntField(dst, `,"service_us":`, r.ServiceUs)
	if r.Expired {
		dst = append(dst, `,"expired":true`...)
	}
	return append(dst, '}'), true
}

// appendUintField and appendIntField append an omitempty number field.
func appendUintField(dst []byte, key string, v uint64) []byte {
	if v == 0 {
		return dst
	}
	return strconv.AppendUint(append(dst, key...), v, 10)
}

func appendIntField(dst []byte, key string, v int64) []byte {
	if v == 0 {
		return dst
	}
	return strconv.AppendInt(append(dst, key...), v, 10)
}

// marshalsPlain reports whether json.Marshal writes s between quotes byte
// for byte: printable ASCII with none of the characters it escapes (the
// quote, the backslash and, for HTML's sake, <, > and &).
func marshalsPlain(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20, c >= 0x80, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return false
		}
	}
	return true
}

func (r *Request) decodeFlat(b []byte) bool {
	d := flatDec{b: b}
	t := *r
	for d.more() {
		switch string(d.key()) {
		case "id":
			t.ID = d.uint()
		case "op":
			t.Op = d.str()
		case "oid":
			t.OID = d.uint()
		case "size":
			t.Size = d.int()
		case "slots":
			t.Slots = d.int()
		case "slot":
			t.Slot = d.int()
		case "dst":
			t.Dst = d.uint()
		default:
			d.bad = true
		}
	}
	if !d.done() {
		return false
	}
	*r = t
	return true
}

func (r *Response) decodeFlat(b []byte) bool {
	d := flatDec{b: b}
	t := *r
	for d.more() {
		switch string(d.key()) {
		case "id":
			t.ID = d.uint()
		case "status":
			t.Status = d.str()
		case "oid":
			t.OID = d.uint()
		case "old":
			t.Old = d.uint()
		case "error":
			t.Error = d.str()
		case "retry_after_ms":
			t.RetryAfterMs = d.int()
		case "queue_us":
			t.QueueUs = d.int64()
		case "service_us":
			t.ServiceUs = d.int64()
		case "expired":
			t.Expired = d.bool()
		default: // "stats" included
			d.bad = true
		}
	}
	if !d.done() {
		return false
	}
	*r = t
	return true
}

// flatDec is a cursor over one JSON object written the way json.Marshal
// writes a flat struct: {"key":value,...} with no whitespace, keys and
// strings without escapes, numbers as plain decimal integers. The first
// byte outside that grammar sets bad, which every later call respects, so
// a decoder reads its fields straight through and asks done once. A field
// given twice is set twice and keeps the later value, as in json.Unmarshal.
type flatDec struct {
	b   []byte
	i   int
	bad bool
}

// next consumes and returns the next byte; at the end of input it sets bad
// and returns 0.
func (d *flatDec) next() byte {
	if d.i >= len(d.b) {
		d.bad = true
		return 0
	}
	c := d.b[d.i]
	d.i++
	return c
}

// more opens the object on its first call and steps past a field separator
// on later ones, reporting whether a field follows.
func (d *flatDec) more() bool {
	if d.bad {
		return false
	}
	first := d.i == 0
	switch c := d.next(); {
	case first && c == '{':
		if d.i < len(d.b) && d.b[d.i] == '}' {
			d.i++
			return false
		}
		return true
	case !first && c == ',':
		return true
	case !first && c == '}':
		return false
	}
	d.bad = true
	return false
}

// done reports whether the object closed at the last byte of input with
// nothing declined on the way.
func (d *flatDec) done() bool { return !d.bad && d.i == len(d.b) }

// key reads `"name":` and returns the name.
func (d *flatDec) key() []byte {
	k := d.quoted()
	if d.next() != ':' {
		d.bad = true
	}
	return k
}

// quoted reads a string literal made of printable ASCII with no escape and
// returns the bytes between its quotes.
func (d *flatDec) quoted() []byte {
	if d.next() != '"' {
		d.bad = true
		return nil
	}
	start := d.i
	for d.i < len(d.b) {
		switch c := d.next(); {
		case c == '"':
			return d.b[start : d.i-1]
		case c < 0x20, c >= 0x80, c == '\\':
			d.bad = true
			return nil
		}
	}
	d.bad = true
	return nil
}

// str reads a string value. The protocol's own words come back as their
// constants, so an ordinary frame's op or status costs no allocation.
func (d *flatDec) str() string {
	s := d.quoted()
	switch string(s) {
	case OpPing:
		return OpPing
	case OpCreate:
		return OpCreate
	case OpAccess:
		return OpAccess
	case OpUpdate:
		return OpUpdate
	case OpSet:
		return OpSet
	case OpRoot:
		return OpRoot
	case OpUnroot:
		return OpUnroot
	case OpStats:
		return OpStats
	case StatusOK:
		return StatusOK
	case StatusError:
		return StatusError
	case StatusShed:
		return StatusShed
	case StatusClosed:
		return StatusClosed
	}
	return string(s)
}

// uint reads a decimal integer in [0, 2^64): a lone 0, or digits that do
// not start with one.
func (d *flatDec) uint() uint64 {
	start := d.i
	var v uint64
	for d.i < len(d.b) && d.b[d.i]-'0' <= 9 {
		c := uint64(d.b[d.i] - '0')
		if v > (math.MaxUint64-c)/10 {
			d.bad = true
			return 0
		}
		v = v*10 + c
		d.i++
	}
	if n := d.i - start; n == 0 || (n > 1 && d.b[start] == '0') {
		d.bad = true
	}
	return v
}

// int64 reads a decimal integer in [-2^63, 2^63). Minus zero is left to
// encoding/json.
func (d *flatDec) int64() int64 {
	neg := d.i < len(d.b) && d.b[d.i] == '-'
	if neg {
		d.i++
	}
	v := d.uint()
	switch {
	case neg && (v == 0 || v > 1<<63), !neg && v > math.MaxInt64:
		d.bad = true
		return 0
	case neg:
		return -int64(v-1) - 1
	}
	return int64(v)
}

// int reads an int64 that fits an int.
func (d *flatDec) int() int {
	v := d.int64()
	if int64(int(v)) != v {
		d.bad = true
	}
	return int(v)
}

func (d *flatDec) bool() bool {
	rest := d.b[d.i:]
	switch {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		d.i += 4
		return true
	case len(rest) >= 5 && string(rest[:5]) == "false":
		d.i += 5
		return false
	}
	d.bad = true
	return false
}
