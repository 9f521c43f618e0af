package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"odbgc/internal/core"
	"odbgc/internal/gc"
	"odbgc/internal/objstore"
	"odbgc/internal/obs"
	"odbgc/internal/simerr"
	"odbgc/internal/storage"
	"odbgc/internal/storage/disk"
)

// TestGCPauseHistogramResolvesAPause: a collection pause is around 0.1 ms,
// so the histogram it lands in must tell 100 µs from 400 µs (it was
// registered over 0-100 ms in 5 ms buckets, where every pause fell in the
// first), and still catch a pathological pause in the overflow bucket.
func TestGCPauseHistogramResolvesAPause(t *testing.T) {
	const name = "odbgc_server_gc_pause_ms"
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	m.gcPause.ObserveExemplar(0.1, 1)
	m.gcPause.ObserveExemplar(0.4, 2)
	m.gcPause.ObserveExemplar(50, 3)
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	// firstAt[k] is the first (cumulative) bucket holding k+1 samples.
	var firstAt [3]string
	for _, line := range strings.Split(sb.String(), "\n") {
		var le string
		var cum int
		if !strings.HasPrefix(line, name+"_bucket{") {
			continue
		}
		if _, err := fmt.Sscanf(strings.TrimPrefix(line, name+"_bucket"), "{le=%q} %d", &le, &cum); err != nil {
			t.Fatalf("bucket line %q: %v", line, err)
		}
		for k := range firstAt {
			if firstAt[k] == "" && cum > k {
				firstAt[k] = le
			}
		}
	}
	if firstAt[0] == "" || firstAt[0] == firstAt[1] {
		t.Errorf("100 µs and 400 µs pauses share bucket le=%q", firstAt[0])
	}
	if firstAt[1] == "+Inf" || firstAt[2] != "+Inf" {
		t.Errorf("400 µs pause in le=%q, 50 ms pause in le=%q; want a finite bucket and +Inf", firstAt[1], firstAt[2])
	}
	if !strings.Contains(sb.String(), `span_id="`) {
		t.Error("pause buckets carry no span-ID exemplars")
	}
}

// waitFor polls cond until it holds or five seconds pass.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestLevelGaugesCountInAndOut: open sessions and requests in flight are
// levels moved by +1 and -1 on the paths that open and retire them. (They
// once went through the counter path, which updates no gauge and drops a
// negative delta, and read 0 for good.)
func TestLevelGaugesCountInAndOut(t *testing.T) {
	ts := startServer(t, Config{}, EngineConfig{})
	m := ts.m()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var clis [2]*Client
	for i := range clis {
		cli, err := Dial(ts.addr, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		if _, err := cli.Do(ctx, Request{Op: OpPing}); err != nil {
			t.Fatal(err)
		}
		clis[i] = cli
	}
	if got := m.sessionsActive.Value(); got != 2 {
		t.Errorf("two sessions open: gauge reads %v", got)
	}
	if got := m.inflight.Value(); got != 0 {
		t.Errorf("every request answered: in flight reads %v", got)
	}
	_ = clis[0].Close()
	waitFor(t, "one session to retire", func() bool { return m.sessionsActive.Value() == 1 })
	_ = clis[1].Close()
	waitFor(t, "both sessions to retire", func() bool { return m.sessionsActive.Value() == 0 })
	if s, r := m.sessionsTotal.Value(), m.requests.Value(); s != 2 || r != 2 {
		t.Errorf("totals: %v sessions, %v requests; want 2 and 2", s, r)
	}
}

// TestInflightCountsQueuedCalls: a request is in flight from admission to
// its response, queue wait included, so calls admitted before the engine
// runs all count; each leaves the level as its response goes out.
func TestInflightCountsQueuedCalls(t *testing.T) {
	eng, m := benchEngine(t)
	var calls [3]*call
	for i := range calls {
		calls[i] = &call{req: Request{ID: uint64(i + 1), Op: OpPing}, done: make(chan Response, 1)}
		if resp, ok := eng.admit(calls[i]); !ok {
			t.Fatalf("call %d refused: %+v", i, resp)
		}
	}
	if got := m.inflight.Value(); got != 3 {
		t.Errorf("three calls queued: in flight reads %v, want 3", got)
	}
	runEngine(t, eng)
	for _, c := range calls {
		<-c.done
	}
	if got := m.inflight.Value(); got != 0 {
		t.Errorf("every call answered: in flight reads %v, want 0", got)
	}
}

// TestRequestLatencyIsQueuePlusService: the latency histogram holds one
// sample per executed request, each the queue wait plus service time the
// response reports, so it measures admission to response: calls that waited
// in the queue before the engine ran count their wait, and the collections a
// fixed rate of 4 runs after responding count for none.
func TestRequestLatencyIsQueuePlusService(t *testing.T) {
	mgr, err := storage.NewManager(storage.Config{PageSize: 1024, PagesPerPartition: 4, BufferPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	pol, err := core.NewFixedRate(4)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(gc.NewHeap(objstore.NewStore(), mgr), EngineConfig{Policy: pol, Selection: gc.UpdatedPointer{}})
	if err != nil {
		t.Fatal(err)
	}
	m := eng.cfg.Metrics
	var n int
	var wantMs float64
	count := func(resp Response) {
		n++
		wantMs += float64(resp.QueueUs+resp.ServiceUs) / 1e3
	}
	var queued [3]*call
	for i := range queued {
		queued[i] = &call{req: Request{ID: uint64(i + 1), Op: OpPing}, done: make(chan Response, 1)}
		if resp, ok := eng.admit(queued[i]); !ok {
			t.Fatalf("call %d refused: %+v", i, resp)
		}
	}
	time.Sleep(2 * time.Millisecond)
	runEngine(t, eng)
	for _, c := range queued {
		count(<-c.done)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	do := func(req Request) Response {
		t.Helper()
		resp := eng.Submit(ctx, req, nil)
		if resp.Status != StatusOK {
			t.Fatalf("%+v answered %+v", req, resp)
		}
		count(resp)
		return resp
	}
	// Each child hung off the hub's one slot turns the previous one into
	// garbage: an overwrite per round, a collection every fourth.
	hub := do(Request{Op: OpCreate, Size: 64, Slots: 1}).OID
	for i := 0; i < 60; i++ {
		child := do(Request{Op: OpCreate, Size: 64}).OID
		do(Request{Op: OpSet, OID: hub, Slot: 0, Dst: child})
		do(Request{Op: OpUnroot, OID: child})
	}
	if eng.heap.Collections() == 0 {
		t.Fatal("no collection ran: the case does not test what the latency leaves out")
	}
	got, sumMs := m.latency.Value()
	if got != n {
		t.Errorf("_count = %d, want %d requests", got, n)
	}
	if d := math.Abs(sumMs - wantMs); d > float64(n)*1e-3 {
		t.Errorf("_sum = %v ms, want %v ms (queue + service) within 1 µs per request", sumMs, wantMs)
	}
}

// TestMetricNamesTakeOneNamespace scrapes a registry holding every metric
// a server declares, each failure class's counter included: every family
// has a valid name under odbgc_{server,control,heap,gc}_ and is declared
// once, and it holds every family obs.NewLive declares on a registry of its
// own, so it holds at least as many.
func TestMetricNamesTakeOneNamespace(t *testing.T) {
	families := func(reg *obs.Registry) []string {
		var sb strings.Builder
		if err := reg.WriteText(&sb); err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, line := range strings.Split(sb.String(), "\n") {
			if strings.HasPrefix(line, "# TYPE ") {
				names = append(names, strings.Fields(line)[2])
			}
		}
		return names
	}
	live := obs.NewLive()
	NewMetrics(live.Registry())
	valid := regexp.MustCompile(`^odbgc_(server|control|heap|gc)_[a-z0-9_]+$`)
	seen := make(map[string]int)
	for _, name := range families(live.Registry()) {
		seen[name]++
		if !valid.MatchString(name) || strings.HasPrefix(name, "odbgc_sim_") {
			t.Errorf("family %q is outside the namespace", name)
		}
		if seen[name] == 2 {
			t.Errorf("family %q declared more than once", name)
		}
	}
	for _, class := range simerr.FailureClasses() {
		if name := fmt.Sprintf("odbgc_server_errors_%s_total", class); seen[name] != 1 {
			t.Errorf("failure class %s: %s declared %d times, want once", class, name, seen[name])
		}
	}
	own := families(obs.NewLive().Registry())
	if len(own) == 0 {
		t.Fatal("obs.NewLive declares no family")
	}
	for _, name := range own {
		if seen[name] != 1 {
			t.Errorf("obs.NewLive declares %s, which the server's scrape holds %d times", name, seen[name])
		}
	}
}

// TestRecoveryObservePublishesFallback: the meta-fallback gauge reads 1 when
// the other slot's checkpoint served and 0 when it did not, beside the torn
// tail's.
func TestRecoveryObservePublishesFallback(t *testing.T) {
	for _, fallback := range []bool{true, false} {
		reg := obs.NewRegistry()
		m := NewMetrics(reg)
		m.RecoveryObserve(&disk.RecoveryInfo{MetaFallback: fallback, TornTail: !fallback, Objects: 7}, 1.5, 2.5)
		for _, g := range []struct {
			name string
			h    *obs.Gauge
			want float64
		}{
			{"meta_fallback", m.recoveryFallback, flag(fallback)},
			{"torn_tail", m.recoveryTornTail, flag(!fallback)},
			{"objects", m.recoveryObjects, 7},
		} {
			if got := g.h.Value(); got != g.want {
				t.Errorf("fallback %v: %s = %v, want %v", fallback, g.name, got, g.want)
			}
		}
		var sb strings.Builder
		if err := reg.WriteText(&sb); err != nil {
			t.Fatal(err)
		}
		if line := fmt.Sprintf("odbgc_server_recovery_meta_fallback %v\n", flag(fallback)); !strings.Contains(sb.String(), line) {
			t.Errorf("fallback %v: /metrics text lacks %q", fallback, line)
		}
	}
}

// TestServingRunReportsItsStep: a serving run heartbeats as a replay does,
// so /statusz and odbgc_control_steps_total follow the requests served even
// when no collection falls due.
func TestServingRunReportsItsStep(t *testing.T) {
	ts := startServer(t, Config{}, EngineConfig{})
	cli, err := Dial(ts.addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// Accesses advance no overwrite clock, so fixed(4) never falls due.
	const served = 1500
	oid := mustOK(ctx, t, cli, Request{Op: OpCreate, Size: 64, Slots: 1}).OID
	for i := 1; i < served; i++ {
		mustOK(ctx, t, cli, Request{Op: OpAccess, OID: oid})
	}
	if d := ts.m().requests.Value(); d != served {
		t.Fatalf("%v requests served, want %d", d, served)
	}

	srv := httptest.NewServer(obs.Handler(ts.live))
	defer srv.Close()
	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	var st struct {
		Step        int `json:"events_consumed"`
		Collections int `json:"collections"`
	}
	if err := json.Unmarshal(get("/statusz"), &st); err != nil {
		t.Fatal(err)
	}
	if st.Collections != 0 {
		t.Fatalf("%d collections ran; the run must never fall due", st.Collections)
	}
	// The heartbeat comes every 1 000 requests, so the step lags by less.
	if st.Step < 1000 || served-st.Step >= 1000 {
		t.Errorf("/statusz events_consumed = %d after %d requests; want within 1 000 below it and at least 1 000", st.Step, served)
	}
	steps := regexp.MustCompile(`(?m)^odbgc_control_steps_total (\S+)$`).FindSubmatch(get("/metrics"))
	if steps == nil {
		t.Fatal("/metrics has no odbgc_control_steps_total sample")
	}
	if got := string(steps[1]); got != fmt.Sprint(st.Step) {
		t.Errorf("odbgc_control_steps_total = %s, want the step /statusz reads, %d", got, st.Step)
	}
}
