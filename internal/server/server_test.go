package server

import (
	"context"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"odbgc/internal/core"
	"odbgc/internal/gc"
	"odbgc/internal/objstore"
	"odbgc/internal/obs"
	"odbgc/internal/storage"
)

// testSrv is a running server plus the handles the tests drive it with.
type testSrv struct {
	srv      *Server
	eng      *Engine
	live     *obs.Live
	addr     string
	drain    chan struct{}
	cancel   context.CancelFunc
	finished chan struct{}
	err      error

	drainOnce sync.Once
}

// startServer boots a complete serving stack on an ephemeral port. Zero
// fields in the configs get test-friendly values.
func startServer(t *testing.T, scfg Config, ecfg EngineConfig) *testSrv {
	t.Helper()
	store := objstore.NewStore()
	mgr, err := storage.NewManager(storage.Config{PageSize: 1024, PagesPerPartition: 4, BufferPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	heap := gc.NewHeap(store, mgr)
	if ecfg.Policy == nil {
		p, err := core.NewFixedRate(4)
		if err != nil {
			t.Fatal(err)
		}
		ecfg.Policy = p
	}
	if ecfg.Selection == nil {
		ecfg.Selection = gc.UpdatedPointer{}
	}
	live := obs.NewLive()
	ecfg.Metrics = NewMetrics(live.Registry())
	eng, err := NewEngine(heap, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	if scfg.Addr == "" {
		scfg.Addr = "127.0.0.1:0"
	}
	srv, err := New(scfg, eng, ecfg.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ts := &testSrv{
		srv: srv, eng: eng, live: live, addr: addr,
		drain: make(chan struct{}), cancel: cancel,
		finished: make(chan struct{}),
	}
	go func() {
		ts.err = srv.Serve(ctx, ts.drain)
		close(ts.finished)
	}()
	t.Cleanup(func() {
		cancel()
		select {
		case <-ts.finished:
		case <-time.After(5 * time.Second):
			t.Error("server did not stop after hard cancel")
		}
	})
	return ts
}

// beginDrain closes the drain channel (idempotently) — stage 1.
func (ts *testSrv) beginDrain() {
	ts.drainOnce.Do(func() { close(ts.drain) })
}

// waitFinished blocks until Serve returns.
func (ts *testSrv) waitFinished(t *testing.T) {
	t.Helper()
	select {
	case <-ts.finished:
	case <-time.After(5 * time.Second):
		t.Fatal("server did not finish in time")
	}
}

func (ts *testSrv) counter(name string) float64 { return ts.live.Registry().Counter(name) }

// assertGoroutinesReturn waits for the goroutine count to come back to the
// baseline: the leak check backing satellite requirement 3.
func assertGoroutinesReturn(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutine count %d never returned to baseline %d\n%s", n, baseline, buf)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestServerBasicOpsAndOnlineGC drives the full op set through a real
// connection and checks that the online collector actually ran and
// reclaimed the garbage the workload made — the tentpole behavior: GC from
// live traffic, no trace annotations.
func TestServerBasicOpsAndOnlineGC(t *testing.T) {
	ts := startServer(t, Config{}, EngineConfig{})
	cli, err := Dial(ts.addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cli.Close() }()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	if resp, err := cli.Do(ctx, Request{Op: OpPing}); err != nil || resp.Status != StatusOK {
		t.Fatalf("ping: %+v, %v", resp, err)
	}
	hub, err := cli.Create(ctx, 256, 4)
	if err != nil {
		t.Fatal(err)
	}

	// Churn: link a child into the hub, then replace it. Every replaced
	// child is unrooted and unreachable — garbage only a trace-free
	// collector can find.
	prev := uint64(0)
	for i := 0; i < 12; i++ {
		child, err := cli.Create(ctx, 128, 0)
		if err != nil {
			t.Fatal(err)
		}
		old, err := cli.Set(ctx, hub, 0, child)
		if err != nil {
			t.Fatal(err)
		}
		if old != prev {
			t.Fatalf("link %d returned old=%d, want %d", i, old, prev)
		}
		if prev != 0 {
			if resp, err := cli.Do(ctx, Request{Op: OpUnroot, OID: prev}); err != nil || resp.Status != StatusOK {
				t.Fatalf("unroot: %+v, %v", resp, err)
			}
		}
		prev = child
	}
	if resp, err := cli.Do(ctx, Request{Op: OpAccess, OID: hub}); err != nil || resp.Status != StatusOK {
		t.Fatalf("access: %+v, %v", resp, err)
	}
	if resp, err := cli.Do(ctx, Request{Op: OpUpdate, OID: hub}); err != nil || resp.Status != StatusOK {
		t.Fatalf("update: %+v, %v", resp, err)
	}

	st, err := cli.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Collections == 0 {
		t.Error("no online collections despite 11 pointer overwrites at fixed(4)")
	}
	if st.ReclaimedBytes == 0 {
		t.Error("collections reclaimed nothing; unreachable children should be garbage")
	}
	if st.OverwriteClock != 11 {
		t.Errorf("overwrite clock %d, want 11 (12 links, first initializing)", st.OverwriteClock)
	}
	if st.Policy == "" || st.QueueDepth == 0 {
		t.Errorf("stats incomplete: %+v", st)
	}

	// Errors classify and count without killing the session.
	if resp, err := cli.Do(ctx, Request{Op: OpAccess, OID: 9999}); err != nil || resp.Status != StatusError {
		t.Fatalf("absent access: %+v, %v", resp, err)
	}
	if resp, err := cli.Do(ctx, Request{Op: "bogus"}); err != nil || resp.Status != StatusError {
		t.Fatalf("bogus op: %+v, %v", resp, err)
	}
	if resp, err := cli.Do(ctx, Request{Op: OpPing}); err != nil || resp.Status != StatusOK {
		t.Fatalf("session died after error responses: %+v, %v", resp, err)
	}
}

// TestServerShedsUnderFlood floods a deliberately slow engine far past its
// admission limit: shed responses must arrive immediately with retry
// hints, every admitted request must complete, and nothing may hang.
func TestServerShedsUnderFlood(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ts := startServer(t,
		Config{MaxSessions: 64, RequestTimeout: 5 * time.Second},
		EngineConfig{QueueDepth: 2, ServiceDelay: 5 * time.Millisecond})

	const clients = 16
	const perClient = 6
	var (
		mu               sync.Mutex
		ok, shed, errs   int
		retryHintMissing int
	)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cli, err := Dial(ts.addr, time.Second)
			if err != nil {
				mu.Lock()
				errs++
				mu.Unlock()
				return
			}
			defer func() { _ = cli.Close() }()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			for j := 0; j < perClient; j++ {
				resp, err := cli.Do(ctx, Request{Op: OpPing})
				mu.Lock()
				switch {
				case err != nil:
					errs++
				case resp.Status == StatusOK:
					ok++
				case resp.Status == StatusShed:
					shed++
					if resp.RetryAfterMs < 1 {
						retryHintMissing++
					}
				default:
					errs++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	if total := ok + shed + errs; total != clients*perClient {
		t.Fatalf("accounted %d responses, want %d", total, clients*perClient)
	}
	if shed == 0 {
		t.Error("no requests shed despite 16 concurrent sessions on a queue of 2")
	}
	if ok == 0 {
		t.Error("no requests admitted; admission control is refusing everything")
	}
	if errs != 0 {
		t.Errorf("%d requests failed outright; overload must shed, not error", errs)
	}
	if retryHintMissing != 0 {
		t.Errorf("%d shed responses lacked a retry-after hint", retryHintMissing)
	}
	if got := ts.counter(MetricShed); int(got) != shed {
		t.Errorf("odbgc_server_shed_total = %v, client saw %d sheds", got, shed)
	}

	// Clean drain after the flood: no goroutines may outlive Serve.
	ts.beginDrain()
	ts.waitFinished(t)
	if ts.err != nil {
		t.Fatalf("clean drain returned %v", ts.err)
	}
	ts.cancel()
	assertGoroutinesReturn(t, baseline)
}

// TestServerDrainMidLoad interrupts a server with live in-flight traffic:
// stage-1 drain must let admitted requests finish, answer the rest with
// shed/closed, and return from Serve without a hard cancel.
func TestServerDrainMidLoad(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ts := startServer(t,
		Config{MaxSessions: 32, DrainGrace: 500 * time.Millisecond},
		EngineConfig{QueueDepth: 8, ServiceDelay: 2 * time.Millisecond})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cli, err := Dial(ts.addr, time.Second)
			if err != nil {
				return
			}
			defer func() { _ = cli.Close() }()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := cli.Do(ctx, Request{Op: OpPing})
				if err != nil || resp.Status == StatusClosed {
					return
				}
			}
		}()
	}

	time.Sleep(50 * time.Millisecond) // let traffic establish
	ts.beginDrain()
	ts.waitFinished(t)
	if ts.err != nil {
		t.Fatalf("drain returned %v, want nil (clean)", ts.err)
	}
	close(stop)
	wg.Wait()

	// The listener is gone: new connections are refused outright.
	if conn, err := net.DialTimeout("tcp", ts.addr, 200*time.Millisecond); err == nil {
		_ = conn.Close()
		t.Error("drained server still accepting connections")
	}
	ts.cancel()
	assertGoroutinesReturn(t, baseline)
}

// TestServerHardCancel is stage 2: cancellation mid-load closes every
// connection and Serve returns the context error.
func TestServerHardCancel(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ts := startServer(t, Config{}, EngineConfig{ServiceDelay: time.Millisecond})

	cli, err := Dial(ts.addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cli.Close() }()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if resp, err := cli.Do(ctx, Request{Op: OpPing}); err != nil || resp.Status != StatusOK {
		t.Fatalf("ping before cancel: %+v, %v", resp, err)
	}

	ts.cancel()
	ts.waitFinished(t)
	if ts.err == nil {
		t.Fatal("hard cancel returned nil; want a classified context error")
	}
	assertGoroutinesReturn(t, baseline)
}

// TestIdleSessionReaped pins the idle reaper: a silent connection is
// closed at the idle deadline and counted.
func TestIdleSessionReaped(t *testing.T) {
	ts := startServer(t, Config{IdleTimeout: 60 * time.Millisecond}, EngineConfig{})
	conn, err := net.DialTimeout("tcp", ts.addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()

	// Say nothing; the server must hang up on us.
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 16)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("idle connection received data instead of a close")
	}
	deadline := time.Now().Add(time.Second)
	for ts.counter(MetricIdleReaped) < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("odbgc_server_idle_reaped_total = %v, want >= 1", ts.counter(MetricIdleReaped))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMalformedFrameRejected pins hostile-bytes handling: an error frame
// comes back, the connection closes, and the violation is counted.
func TestMalformedFrameRejected(t *testing.T) {
	ts := startServer(t, Config{}, EngineConfig{})
	conn, err := net.DialTimeout("tcp", ts.addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()

	// A hostile length prefix: 4 GiB declared.
	if _, err := conn.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 'j', 'u', 'n', 'k'}); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	var resp Response
	if err := ReadFrame(conn, &resp); err != nil {
		t.Fatalf("no error frame for malformed input: %v", err)
	}
	if resp.Status != StatusError {
		t.Fatalf("malformed frame answered %q, want error", resp.Status)
	}
	// The connection must be dead: framing is lost.
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("connection survived a malformed frame")
	}
	if got := ts.counter(MetricMalformed); got < 1 {
		t.Errorf("odbgc_server_malformed_total = %v, want >= 1", got)
	}
}

// TestSessionLimitSheds pins accept-time admission: connections past
// MaxSessions get a shed frame with a retry hint, not a silent close and
// not a queue slot.
func TestSessionLimitSheds(t *testing.T) {
	ts := startServer(t, Config{MaxSessions: 1}, EngineConfig{})
	cli, err := Dial(ts.addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cli.Close() }()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if resp, err := cli.Do(ctx, Request{Op: OpPing}); err != nil || resp.Status != StatusOK {
		t.Fatalf("first session: %+v, %v", resp, err)
	}

	conn, err := net.DialTimeout("tcp", ts.addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	var resp Response
	if err := ReadFrame(conn, &resp); err != nil {
		t.Fatalf("second session got no shed frame: %v", err)
	}
	if resp.Status != StatusShed {
		t.Fatalf("second session answered %q, want shed", resp.Status)
	}
	if resp.RetryAfterMs < 1 {
		t.Errorf("shed frame lacks a retry-after hint: %+v", resp)
	}
	if got := ts.counter(MetricShed); got < 1 {
		t.Errorf("odbgc_server_shed_total = %v, want >= 1", got)
	}
}

// TestDrainAnswersClosed pins the draining handshake: a connection
// arriving after stage 1 begins is told "closed", not left hanging.
func TestDrainAnswersClosed(t *testing.T) {
	ts := startServer(t, Config{}, EngineConfig{})
	ts.beginDrain()
	ts.waitFinished(t)
	if ts.err != nil {
		t.Fatalf("empty drain returned %v", ts.err)
	}
	// After Serve returns, Submit still answers closed rather than
	// panicking or blocking — sessions racing the shutdown get a sane
	// response.
	resp := ts.eng.Submit(context.Background(), Request{Op: OpPing}, nil)
	if resp.Status != StatusClosed {
		t.Fatalf("post-drain submit answered %q, want closed", resp.Status)
	}
}
