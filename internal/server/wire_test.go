package server

import (
	"bytes"
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"testing/iotest"
	"time"
)

// frameOf returns v's frame as WriteFrame writes it.
func frameOf(t *testing.T, v any) []byte {
	t.Helper()
	b, err := appendFrame(nil, v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// dialRaw opens a plain connection to the test server with a deadline on
// everything the test does with it.
func dialRaw(t *testing.T, ts *testSrv) net.Conn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", ts.addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	return conn
}

// TestFrameOneByteAtATime delivers frames in the smallest pieces a stream
// can: the readers must put them back together, from a reader that yields
// one byte a call and from a socket whose peer writes one byte a segment.
func TestFrameOneByteAtATime(t *testing.T) {
	want := Request{ID: 7, Op: OpSet, OID: 42, Slot: 3, Dst: 99}
	wire := append(frameOf(t, want), frameOf(t, Response{ID: 7, Status: StatusOK, Old: 5})...)
	rd := iotest.OneByteReader(bytes.NewReader(wire))
	var req Request
	if err := ReadFrame(rd, &req); err != nil || req != want {
		t.Fatalf("request one byte at a time: %+v, %v", req, err)
	}
	var resp Response
	if err := ReadFrame(rd, &resp); err != nil || resp.ID != 7 || resp.Old != 5 {
		t.Fatalf("response one byte at a time: %+v, %v", resp, err)
	}

	ts := startServer(t, Config{}, EngineConfig{})
	conn := dialRaw(t, ts)
	for _, b := range frameOf(t, Request{ID: 9, Op: OpCreate, Size: 64, Slots: 1}) {
		if _, err := conn.Write([]byte{b}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(200 * time.Microsecond) // let the byte leave as its own segment
	}
	if err := ReadFrame(conn, &resp); err != nil || resp.ID != 9 || resp.Status != StatusOK || resp.OID == 0 {
		t.Fatalf("create written one byte at a time answered %+v, %v", resp, err)
	}
}

// TestPipelinedRequestsAnsweredInOrder sends two requests in one segment:
// the second sits in the session's read buffer while the first is served
// and must be answered next, with no read from the socket in between.
func TestPipelinedRequestsAnsweredInOrder(t *testing.T) {
	ts := startServer(t, Config{}, EngineConfig{})
	conn := dialRaw(t, ts)
	both := append(frameOf(t, Request{ID: 1, Op: OpCreate, Size: 64}), frameOf(t, Request{ID: 2, Op: OpPing})...)
	if _, err := conn.Write(both); err != nil {
		t.Fatal(err)
	}
	for id := uint64(1); id <= 2; id++ {
		var resp Response
		if err := ReadFrame(conn, &resp); err != nil || resp.ID != id || resp.Status != StatusOK {
			t.Fatalf("pipelined request %d answered %+v, %v", id, resp, err)
		}
	}
}

// TestMalformedFrameBehindGoodOne puts hostile bytes in the same segment as
// a good request: the request is served, then the violation gets its error
// frame, its count and a closed connection, exactly as when it arrives alone.
func TestMalformedFrameBehindGoodOne(t *testing.T) {
	ts := startServer(t, Config{}, EngineConfig{})
	conn := dialRaw(t, ts)
	bytesOut := append(frameOf(t, Request{ID: 1, Op: OpPing}), 0xFF, 0xFF, 0xFF, 0xFF, 'j', 'u', 'n', 'k')
	if _, err := conn.Write(bytesOut); err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := ReadFrame(conn, &resp); err != nil || resp.ID != 1 || resp.Status != StatusOK {
		t.Fatalf("good frame ahead of the malformed one answered %+v, %v", resp, err)
	}
	resp = Response{}
	if err := ReadFrame(conn, &resp); err != nil || resp.Status != StatusError || !strings.Contains(resp.Error, "malformed") {
		t.Fatalf("malformed frame answered %+v, %v", resp, err)
	}
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("connection survived a malformed frame")
	}
	if got := ts.m().malformed.Value(); got != 1 {
		t.Errorf("odbgc_server_malformed_total = %v, want 1", got)
	}
}

// TestDrainWakesSessionInBufferedRead pins the drain nudge now that the
// session reads through a buffer: the deadline set on the connection must
// still interrupt a session parked in the reader, within DrainGrace and not
// at the idle timeout.
func TestDrainWakesSessionInBufferedRead(t *testing.T) {
	ts := startServer(t, Config{DrainGrace: 100 * time.Millisecond, IdleTimeout: time.Minute}, EngineConfig{})
	cli, err := Dial(ts.addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cli.Close() }()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if resp, err := cli.Do(ctx, Request{Op: OpPing}); err != nil || resp.Status != StatusOK {
		t.Fatalf("ping: %+v, %v", resp, err)
	}
	// The session is now blocked reading its next frame, or about to be.
	start := time.Now()
	ts.beginDrain()
	ts.waitFinished(t)
	if ts.err != nil {
		t.Fatalf("drain returned %v", ts.err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("drain with one idle session took %v, want about DrainGrace (100ms)", took)
	}
	if got := ts.m().idleReaped.Value(); got != 0 {
		t.Errorf("drained session counted as idle-reaped (%v)", got)
	}
}

// TestAbandonedCallIsNotReused is the waiter's one rule. A request times
// out while the engine is busy: the call stays the engine's, the session's
// next request runs on a new call while the engine is still answering the
// old one (the race detector watches the two), and the late response lands
// where nobody reads it. A call that came back is used again.
func TestAbandonedCallIsNotReused(t *testing.T) {
	eng, _ := benchEngine(t)
	ctx := context.Background()
	w := waiter{e: eng, timeout: 20 * time.Millisecond}

	// The engine is not running yet: the waiter's timer ends the wait.
	resp := w.submit(ctx, Request{ID: 1, Op: OpPing}, nil)
	if resp.ID != 1 || resp.Status != StatusError || !strings.Contains(resp.Error, "deadline") {
		t.Fatalf("timed-out request answered %+v", resp)
	}
	if w.c != nil {
		t.Fatal("waiter kept the call it gave up on")
	}
	abandoned := <-eng.queue
	eng.queue <- abandoned

	w.timeout = 5 * time.Second
	runEngine(t, eng) // serves the abandoned call, then whatever follows
	resp = w.submit(ctx, Request{ID: 2, Op: OpPing}, nil)
	if resp.ID != 2 || resp.Status != StatusOK {
		t.Fatalf("request after an abandoned one answered %+v", resp)
	}
	second := w.c
	if second == abandoned {
		t.Fatal("waiter reused the call it had abandoned")
	}
	select {
	case late := <-abandoned.done:
		if late.ID != 1 || !late.Expired {
			t.Fatalf("abandoned call's response is %+v, want request 1 expired in queue", late)
		}
	default:
		t.Fatal("abandoned call was never answered")
	}

	resp = w.submit(ctx, Request{ID: 3, Op: OpPing}, nil)
	if resp.ID != 3 || resp.Status != StatusOK {
		t.Fatalf("third request answered %+v", resp)
	}
	if w.c != second {
		t.Error("waiter made a new call though the last one came back")
	}
	if n := testing.AllocsPerRun(100, func() { resp = w.submit(ctx, Request{ID: 4, Op: OpPing}, nil) }); n != 0 {
		t.Errorf("a session's submit allocates %v times per request, want 0", n)
	}
}

// fakeServer accepts connections and hands each, with its accept order, to
// serve on its own goroutine.
func fakeServer(t *testing.T, serve func(n int, conn net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for n := 0; ; n++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer func() { _ = conn.Close() }()
				_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
				serve(n, conn)
			}()
		}
	}()
	t.Cleanup(func() {
		_ = ln.Close()
		<-done
	})
	return ln.Addr().String()
}

// TestClientPoisonedAfterFailedDo pins the fix for the desynchronised
// client: after a Do that failed — here the deadline fired between the write
// and the read, and the response arrived later — the stream's position is
// unknown, so every later Do returns the first error instead of taking the
// late response for its own ("response id 1 for request 2", forever). A
// fresh connection works.
func TestClientPoisonedAfterFailedDo(t *testing.T) {
	answered := make(chan struct{})
	addr := fakeServer(t, func(n int, conn net.Conn) {
		var req Request
		for ReadFrame(conn, &req) == nil {
			if n == 0 && req.ID == 1 {
				time.Sleep(150 * time.Millisecond) // past the client's deadline
			}
			if WriteFrame(conn, Response{ID: req.ID, Status: StatusOK}) != nil {
				return
			}
			if n == 0 && req.ID == 1 {
				close(answered)
			}
		}
	})
	cli, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cli.Close() }()
	short, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, first := cli.Do(short, Request{Op: OpPing})
	if !isTimeout(first) {
		t.Fatalf("Do against a late server returned %v, want a timeout", first)
	}
	<-answered // the late response is in the socket now
	long, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	for i := 0; i < 2; i++ {
		if _, err := cli.Do(long, Request{Op: OpPing}); !errors.Is(err, first) {
			t.Fatalf("Do %d after a failed one returned %v, want the first failure (%v)", i+2, err, first)
		}
	}

	again, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = again.Close() }()
	if resp, err := again.Do(long, Request{Op: OpPing}); err != nil || resp.Status != StatusOK {
		t.Fatalf("reconnected client: %+v, %v", resp, err)
	}
}

// TestClientPoisonedAfterIDMismatch: a response with the wrong ID is the
// other way a Client learns it has lost its place.
func TestClientPoisonedAfterIDMismatch(t *testing.T) {
	addr := fakeServer(t, func(_ int, conn net.Conn) {
		var req Request
		for ReadFrame(conn, &req) == nil {
			if WriteFrame(conn, Response{ID: req.ID + 41, Status: StatusOK}) != nil {
				return
			}
		}
	})
	cli, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cli.Close() }()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_, first := cli.Do(ctx, Request{Op: OpPing})
	if first == nil || !strings.Contains(first.Error(), "response id 42 for request 1") {
		t.Fatalf("mismatched response returned %v", first)
	}
	if _, err := cli.Do(ctx, Request{Op: OpPing}); !errors.Is(err, first) {
		t.Fatalf("Do after a mismatch returned %v, want the first failure", err)
	}
}
