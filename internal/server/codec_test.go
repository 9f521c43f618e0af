package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

// goldenFrames pins the wire: each frame is what WriteFrame put on the wire
// for its value before the typed codec existed (encoding/json alone, PR 14).
// One request of each op, the numeric extremes, one response of each
// status, and two responses the typed encoder declines.
var goldenFrames = []struct {
	v     any
	typed bool // the typed codec carries it; false: encoding/json does
	wire  string
}{
	{Request{ID: 1, Op: OpPing}, true,
		"\x00\x00\x00\x14{\"id\":1,\"op\":\"ping\"}"},
	{Request{ID: 2, Op: OpCreate, Size: 200, Slots: 8}, true,
		"\x00\x00\x00+{\"id\":2,\"op\":\"create\",\"size\":200,\"slots\":8}"},
	{Request{ID: 3, Op: OpAccess, OID: 4097}, true,
		"\x00\x00\x00!{\"id\":3,\"op\":\"access\",\"oid\":4097}"},
	{Request{ID: 4, Op: OpUpdate, OID: 4097}, true,
		"\x00\x00\x00!{\"id\":4,\"op\":\"update\",\"oid\":4097}"},
	{Request{ID: 5, Op: OpSet, OID: 17, Slot: 3, Dst: 9001}, true,
		"\x00\x00\x000{\"id\":5,\"op\":\"set\",\"oid\":17,\"slot\":3,\"dst\":9001}"},
	{Request{ID: 6, Op: OpRoot, OID: 9001}, true,
		"\x00\x00\x00\x1f{\"id\":6,\"op\":\"root\",\"oid\":9001}"},
	{Request{ID: 7, Op: OpUnroot, OID: 9001}, true,
		"\x00\x00\x00!{\"id\":7,\"op\":\"unroot\",\"oid\":9001}"},
	{Request{ID: 8, Op: OpStats}, true,
		"\x00\x00\x00\x15{\"id\":8,\"op\":\"stats\"}"},
	{Request{ID: 1<<64 - 1, Op: OpSet, OID: 1, Size: -1, Slots: -2, Slot: -3, Dst: 1<<64 - 1}, true,
		"\x00\x00\x00h{\"id\":18446744073709551615,\"op\":\"set\",\"oid\":1,\"size\":-1,\"slots\":-2,\"slot\":-3,\"dst\":18446744073709551615}"},
	{Response{ID: 2, Status: StatusOK, OID: 9001, QueueUs: 3, ServiceUs: 12}, true,
		"\x00\x00\x00>{\"id\":2,\"status\":\"ok\",\"oid\":9001,\"queue_us\":3,\"service_us\":12}"},
	{Response{ID: 5, Status: StatusOK, Old: 4242, ServiceUs: 1}, true,
		"\x00\x00\x000{\"id\":5,\"status\":\"ok\",\"old\":4242,\"service_us\":1}"},
	{Response{ID: 9, Status: StatusError, Error: "set: slot 9 out of range [0,8) on oid:17", QueueUs: 1, ServiceUs: 2}, true,
		"\x00\x00\x00h{\"id\":9,\"status\":\"error\",\"error\":\"set: slot 9 out of range [0,8) on oid:17\",\"queue_us\":1,\"service_us\":2}"},
	{Response{ID: 10, Status: StatusError, Expired: true, QueueUs: 5000123, Error: "deadline exceeded"}, true,
		"\x00\x00\x00X{\"id\":10,\"status\":\"error\",\"error\":\"deadline exceeded\",\"queue_us\":5000123,\"expired\":true}"},
	{Response{ID: 11, Status: StatusShed, Error: "overloaded: admission queue full (128 deep)", RetryAfterMs: 7}, true,
		"\x00\x00\x00b{\"id\":11,\"status\":\"shed\",\"error\":\"overloaded: admission queue full (128 deep)\",\"retry_after_ms\":7}"},
	{Response{Status: StatusClosed, Error: "session closed: server draining"}, true,
		"\x00\x00\x00D{\"id\":0,\"status\":\"closed\",\"error\":\"session closed: server draining\"}"},
	{Response{ID: 12, Status: StatusError, Error: `unknown op "a\b<c>&d é"`}, false,
		"\x00\x00\x00O{\"id\":12,\"status\":\"error\",\"error\":\"unknown op \\\"a\\\\b\\u003cc\\u003e\\u0026d é\\\"\"}"},
	{Response{ID: 8, Status: StatusOK, ServiceUs: 4, Stats: &Stats{Objects: 9216, DBBytes: 1228800, Partitions: 14, Roots: 1024,
		OverwriteClock: 77, Collections: 5, ReclaimedBytes: 51200, AppIO: 1000, GCIO: 100, Policy: "saio(10.0%)", QueueLen: 1, QueueDepth: 128}}, false,
		"\x00\x00\x00\xfc{\"id\":8,\"status\":\"ok\",\"service_us\":4,\"stats\":{\"objects\":9216,\"db_bytes\":1228800,\"partitions\":14,\"roots\":1024,\"overwrite_clock\":77,\"collections\":5,\"reclaimed_bytes\":51200,\"app_io\":1000,\"gc_io\":100,\"policy\":\"saio(10.0%)\",\"queue_len\":1,\"queue_depth\":128}}"},
}

// TestGoldenFrames holds the wire bytes to the parent's, frame by frame,
// whichever path writes them, and checks that both decoders read them back.
func TestGoldenFrames(t *testing.T) {
	for _, g := range goldenFrames {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, g.v); err != nil {
			t.Fatalf("%+v: %v", g.v, err)
		}
		if buf.String() != g.wire {
			t.Errorf("%+v\n wrote %q\n want  %q", g.v, buf.String(), g.wire)
		}
		if _, typed := g.v.(flatEncoder).appendFlat(nil); typed != g.typed {
			t.Errorf("%+v: typed encoder accepted = %v, want %v", g.v, typed, g.typed)
		}
		got := reflect.New(reflect.TypeOf(g.v))
		if typed := got.Interface().(flatDecoder).decodeFlat([]byte(g.wire[4:])); typed != g.typed {
			t.Errorf("%+v: typed decoder accepted = %v, want %v", g.v, typed, g.typed)
		}
		got = reflect.New(reflect.TypeOf(g.v))
		if err := ReadFrame(bytes.NewReader([]byte(g.wire)), got.Interface()); err != nil {
			t.Fatalf("%+v: reading its frame back: %v", g.v, err)
		}
		if !reflect.DeepEqual(got.Elem().Interface(), g.v) {
			t.Errorf("read back %+v, want %+v", got.Elem().Interface(), g.v)
		}
	}
}

// TestFlatFramesDoNotAllocate pins the point of the typed codec: a flat
// frame is encoded into, and decoded from, a reused buffer with no
// allocation at all.
func TestFlatFramesDoNotAllocate(t *testing.T) {
	enc, dec := codecAllocs(t, mixFrames(t))
	if enc != 0 || dec != 0 {
		t.Fatalf("allocations per frame: encode %v, decode %v; want 0 and 0", enc, dec)
	}
}

// FuzzFrameCodec is the differential check behind "the wire bytes are
// exactly json.Marshal's". For arbitrary bytes, the typed decoder either
// declines or produces what json.Unmarshal produces, so the decode path as
// a whole accepts, rejects and decodes as json.Unmarshal does. For
// arbitrary field values, the typed encoder either declines or writes
// json.Marshal's bytes, and the typed decoder reads those bytes back.
func FuzzFrameCodec(f *testing.F) {
	add := func(doc []byte, req Request, resp Response) {
		f.Add(doc, req.ID, req.Op, resp.Error, req.OID, req.Dst, req.Size, req.Slots, req.Slot,
			resp.QueueUs, resp.ServiceUs, resp.Expired)
	}
	for _, g := range goldenFrames {
		switch v := g.v.(type) {
		case Request:
			add([]byte(g.wire[4:]), v, Response{})
		case Response:
			add([]byte(g.wire[4:]), Request{ID: v.ID, Op: v.Status, OID: v.OID, Dst: v.Old, Size: v.RetryAfterMs}, v)
		}
	}
	for _, op := range []string{OpPing, OpCreate, OpAccess, OpUpdate, OpSet, OpRoot, OpUnroot, OpStats,
		StatusOK, StatusError, StatusShed, StatusClosed, "", "bogus", "<", ">", "&", "\"", "\\", "\u00e9\u2028", "\xff", "\x00", "\x1f", "\x7f", " "} {
		add(nil, Request{ID: 1, Op: op}, Response{Error: op})
	}
	add(nil, Request{ID: 1<<64 - 1, Op: OpSet, OID: 1<<64 - 1, Dst: 1<<63 + 1, Size: -1, Slots: math.MinInt, Slot: math.MaxInt},
		Response{QueueUs: math.MinInt64, ServiceUs: math.MaxInt64, Expired: true})
	for _, doc := range []string{
		`{}`, `{"id":1,"id":2,"op":"set","op":"ping"}`, `{"id":18446744073709551615}`, `{"id":18446744073709551616}`,
		`{"slot":-1,"size":-9223372036854775808}`, `{"size":-9223372036854775809}`, `{"slot":-0}`, `{"id":-1}`,
		`{"id":01}`, `{"id":1.0}`, `{"id":1e2}`, `{"id":"1"}`, `{"id":null,"op":null}`, `{"ID":1,"Op":"ping"}`,
		` {"id":1}`, `{"id":1} `, `{"id": 1}`, `{"id":1,}`, `{"id":1}{`, `{"id":1`, `{"id"}`, `{,}`, `[1]`, `null`, `1`, ``,
		`{"op":"ping"}`, `{"op":"a\"b"}`, `{"op":"<>&"}`, `{"op":"é"}`, "{\"op\":\"\xff\"}", "{\"op\":\"a\x00b\"}",
		`{"id":1}`, `{"unknown":1,"id":2}`, `{"id":1,"extra":{"a":[1,2]}}`,
		`{"expired":true,"expired":false}`, `{"expired":1}`, `{"expired":tru}`, `{"expired":"true"}`,
		`{"stats":{"objects":1}}`, `{"stats":null}`, `{"status":"ok","error":"x","retry_after_ms":2147483648}`,
		`{"queue_us":9223372036854775807,"service_us":-9223372036854775808}`, `{"queue_us":9223372036854775808}`,
	} {
		add([]byte(doc), Request{}, Response{})
	}

	f.Fuzz(func(t *testing.T, doc []byte, id uint64, word, text string, a, b uint64, x, y, z int, q, s int64, flag bool) {
		checkDecode(t, doc, func() any { return new(Request) })
		checkDecode(t, doc, func() any { return new(Response) })
		checkEncode(t, &Request{ID: id, Op: word, OID: a, Size: x, Slots: y, Slot: z, Dst: b})
		checkEncode(t, &Response{ID: id, Status: word, OID: a, Old: b, Error: text, RetryAfterMs: x,
			QueueUs: q, ServiceUs: s, Expired: flag})
	})
}

// checkDecode decodes doc three ways into fresh targets — json.Unmarshal,
// the typed decoder alone, and a whole frame through ReadFrame — and holds
// the last two to the first.
func checkDecode(t *testing.T, doc []byte, target func() any) {
	t.Helper()
	want := target()
	wantErr := json.Unmarshal(doc, want)

	got := target()
	if got.(flatDecoder).decodeFlat(doc) {
		if wantErr != nil {
			t.Fatalf("typed decoder accepted %q, which json.Unmarshal rejects: %v", doc, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: typed decoder read %+v, json.Unmarshal %+v", doc, got, want)
		}
	} else if !reflect.DeepEqual(got, target()) {
		t.Fatalf("%q: typed decoder declined but left %+v behind", doc, got)
	}

	if len(doc) == 0 || len(doc) > MaxFrameBytes {
		return // not a frame: the length check refuses it before any decoder runs
	}
	frame := append(binary.BigEndian.AppendUint32(nil, uint32(len(doc))), doc...)
	got = target()
	err := ReadFrame(bytes.NewReader(frame), got)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%q: ReadFrame error %v, json.Unmarshal error %v", doc, err, wantErr)
	}
	if err != nil && !IsMalformed(err) {
		t.Fatalf("%q: rejected as %v, want malformed", doc, err)
	}
	if err == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%q: ReadFrame read %+v, json.Unmarshal %+v", doc, got, want)
	}
}

// checkEncode holds the typed encoder's bytes for v (a *Request or a
// *Response) to json.Marshal's, and has the typed decoder read them back.
func checkEncode(t *testing.T, v any) {
	t.Helper()
	got, ok := v.(flatEncoder).appendFlat(nil)
	if !ok {
		return
	}
	want, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("%+v: json.Marshal: %v", v, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%+v\n typed encoder wrote %q\n json.Marshal        %q", v, got, want)
	}
	back := reflect.New(reflect.TypeOf(v).Elem()).Interface()
	if !back.(flatDecoder).decodeFlat(got) {
		t.Fatalf("typed decoder declined the typed encoder's %q", got)
	}
	if !reflect.DeepEqual(back, v) {
		t.Fatalf("%q read back as %+v, want %+v", got, back, v)
	}
}
