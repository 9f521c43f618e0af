package server

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"odbgc/internal/obs/span"
)

// TestFlightRecorderUnderFlood floods a slow engine past admission with a
// live flight recorder attached, snapshots the recorder mid-load (under
// -race, that exercises the lock discipline against the serving path), and
// after the drain asserts the retained spans are internally consistent:
// every span passes Check, shed responses and retained shed spans agree
// one-for-one, GC pause spans exist, and every GC parent link resolves.
func TestFlightRecorderUnderFlood(t *testing.T) {
	rec := span.NewRecorder(span.Config{Capacity: 512})
	ts := startServer(t,
		Config{MaxSessions: 64, RequestTimeout: 5 * time.Second},
		EngineConfig{QueueDepth: 2, ServiceDelay: 3 * time.Millisecond, Recorder: rec})

	var (
		mu       sync.Mutex
		ok, shed int
	)
	count := func(resp Response, err error) {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case err != nil:
		case resp.Status == StatusOK:
			ok++
			if resp.ServiceUs <= 0 {
				t.Errorf("ok response without service_us metadata: %+v", resp)
			}
		case resp.Status == StatusShed:
			shed++
		}
	}

	// Phase 1, uncontended: a garbage-producing session. Create/link/unroot
	// overwrites drive the overwrite clock, so the default fixed-rate policy
	// actually collects and emits GC spans parented to these requests.
	func() {
		cli, err := Dial(ts.addr, time.Second)
		if err != nil {
			t.Fatalf("garbage client dial: %v", err)
		}
		defer func() { _ = cli.Close() }()
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		hub, err := cli.Create(ctx, 256, 4)
		if err != nil {
			t.Fatalf("hub create: %v", err)
		}
		for i := 0; i < 40; i++ {
			resp, err := cli.Do(ctx, Request{Op: OpCreate, Size: 64, Slots: 1})
			count(resp, err)
			if err != nil || resp.Status != StatusOK {
				continue
			}
			child := resp.OID
			count(cli.Do(ctx, Request{Op: OpSet, OID: hub, Slot: i % 4, Dst: child}))
			count(cli.Do(ctx, Request{Op: OpUnroot, OID: child}))
		}
	}()

	// Phase 2: ping flood to overrun the queue of 2.
	var wg sync.WaitGroup
	for c := 0; c < 12; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cli, err := Dial(ts.addr, time.Second)
			if err != nil {
				return
			}
			defer func() { _ = cli.Close() }()
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			for j := 0; j < 8; j++ {
				count(cli.Do(ctx, Request{Op: OpPing}))
			}
		}()
	}

	// Mid-load dump: the snapshot must be coherent while sessions and the
	// engine are still writing spans.
	time.Sleep(30 * time.Millisecond)
	for _, sp := range rec.Snapshot() {
		s := sp
		if err := s.Check(); err != nil {
			t.Errorf("mid-load snapshot: %v", err)
		}
	}

	wg.Wait()
	ts.beginDrain()
	ts.waitFinished(t)

	snap := rec.Snapshot()
	ptrs := make([]*span.Span, 0, len(snap))
	shedSpans, gcSpans, gcAttributed := 0, 0, 0
	for i := range snap {
		sp := &snap[i]
		ptrs = append(ptrs, sp)
		if err := sp.Check(); err != nil {
			t.Errorf("post-drain snapshot: %v", err)
		}
		switch {
		case sp.Kind == span.KindGC:
			gcSpans++
			if sp.Parent != 0 {
				gcAttributed++
			}
		case sp.Outcome == span.OutcomeShed:
			shedSpans++
		case sp.Outcome == span.OutcomeOK:
			if sp.Stages[span.StageService] <= 0 {
				t.Errorf("ok span %#x without a service stage: %+v", sp.ID, sp.Stages)
			}
		}
	}
	dangling, err := span.CheckAll(ptrs)
	if err != nil {
		t.Fatalf("CheckAll: %v", err)
	}
	if dangling != 0 {
		t.Errorf("%d GC spans with unresolved parents after drain", dangling)
	}
	mu.Lock()
	wantShed := shed
	mu.Unlock()
	if shedSpans != wantShed {
		t.Errorf("retained %d shed spans, clients saw %d shed responses", shedSpans, wantShed)
	}
	if wantShed == 0 {
		t.Error("flood produced no sheds; the test exercised nothing")
	}
	if gcSpans == 0 {
		t.Error("no GC pause spans despite an overwrite-heavy workload")
	}
	if gcAttributed == 0 {
		t.Error("no GC span is attributed to an overlapping request")
	}
	st := rec.Stats()
	if st.Finished == 0 || st.Shed != uint64(wantShed) {
		t.Errorf("recorder stats %+v disagree with client accounting (shed=%d)", st, wantShed)
	}
	// Every path out of a session or a collection — ok, shed, expired,
	// errored, write failed — must finish the span it started.
	if st.Started != st.Finished {
		t.Errorf("%d spans started, %d finished: some path drops its span", st.Started, st.Finished)
	}

	// The per-stage histograms surfaced on /metrics, with span exemplars.
	var sb strings.Builder
	if err := ts.live.Registry().WriteText(&sb); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	text := sb.String()
	for _, name := range []string{MetricStageDecode, MetricStageQueue, MetricStageService, MetricStageWrite, MetricGCPause} {
		if !strings.Contains(text, name+"_bucket") {
			t.Errorf("/metrics missing histogram %s", name)
		}
	}
	if !strings.Contains(text, `span_id="`) {
		t.Error("/metrics has no span-ID exemplars")
	}
}

// TestExpiredInQueueSpan drives the engine's expired-in-queue path
// directly: a call whose deadline passed before processing must come back
// with Expired metadata, and the session-side outcome mapping must retain
// it as an expired span.
func TestExpiredInQueueSpan(t *testing.T) {
	rec := span.NewRecorder(span.Config{})
	ts := startServer(t, Config{}, EngineConfig{Recorder: rec})

	sp := rec.Start(span.KindRequest, OpPing, span.RequestID(99, 1), 0, ts.eng.Now())
	c := &call{
		req:      Request{Op: OpPing},
		deadline: time.Now().Add(-time.Second),
		done:     make(chan Response, 1),
		spanID:   sp.SpanID(),
		enq:      ts.eng.Now(),
	}
	ts.eng.process(c)
	resp := <-c.done
	if !resp.Expired || resp.Status != StatusError {
		t.Fatalf("expired call answered %+v", resp)
	}
	if out := outcomeOf(resp); out != span.OutcomeExpired {
		t.Fatalf("outcomeOf(expired) = %q", out)
	}
	sp.SetStage(span.StageQueue, resp.QueueUs*1000)
	rec.Finish(sp, ts.eng.Now(), outcomeOf(resp))
	found := false
	for _, s := range rec.Snapshot() {
		if s.ID == span.RequestID(99, 1) {
			found = true
			if s.Outcome != span.OutcomeExpired {
				t.Fatalf("expired span retained with outcome %q", s.Outcome)
			}
		}
	}
	if !found {
		t.Fatal("expired span was not retained")
	}
}
