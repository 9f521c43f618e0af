package span

// The recorder's tests speak the span vocabulary package obs defines
// (kinds, outcomes, stages, IDs, Span, CheckAll) on nearly every line; the
// dot import keeps them short.
import (
	"bytes"
	"testing"

	. "odbgc/internal/obs"
)

// reqSpan runs one ok request span of the given duration through r.
func reqSpan(t *testing.T, r *Recorder, session, seq uint64, start, dur int64, outcome string) uint64 {
	t.Helper()
	id := RequestID(session, seq)
	sp := r.Start(KindRequest, "ping", id, 0, start)
	if sp == nil {
		t.Fatalf("Start returned nil span on a live recorder")
	}
	sp.Session, sp.Seq = session, seq
	sp.SetStage(StageService, dur)
	r.Finish(sp, start+dur, outcome)
	return id
}

func TestNilRecorderIsFree(t *testing.T) {
	var r *Recorder
	sp := r.Start(KindRequest, "ping", 1, 0, 0)
	if sp != nil {
		t.Fatalf("nil recorder Start = %v, want nil", sp)
	}
	sp.SetStage(StageQueue, 5) // nil span: must not panic
	if sp.SpanID() != 0 {
		t.Fatalf("nil span ID = %d", sp.SpanID())
	}
	r.Finish(sp, 10, OutcomeOK)
	r.PinID(42)
	if got := r.Snapshot(); got != nil {
		t.Fatalf("nil recorder snapshot = %v", got)
	}
	if st := r.Stats(); st != (Stats{}) {
		t.Fatalf("nil recorder stats = %+v", st)
	}
}

func TestTailRetention(t *testing.T) {
	r := NewRecorder(Config{Capacity: 8})
	// Flood with ok spans far past both rings, then one of each bad
	// outcome; the bad ones must all survive.
	var tick int64
	for i := uint64(1); i <= 100; i++ {
		tick += 10
		reqSpan(t, r, 1, i, tick, 5, OutcomeOK)
	}
	bad := map[uint64]string{
		RequestID(2, 1): OutcomeShed,
		RequestID(2, 2): OutcomeError,
		RequestID(2, 3): OutcomeExpired,
		RequestID(2, 4): OutcomeClosed,
	}
	seq := uint64(0)
	for _, out := range []string{OutcomeShed, OutcomeError, OutcomeExpired, OutcomeClosed} {
		seq++
		tick += 10
		reqSpan(t, r, 2, seq, tick, 1, out)
	}
	// More ok flood: retained ring must keep the bad spans anyway.
	for i := uint64(101); i <= 200; i++ {
		tick += 10
		reqSpan(t, r, 1, i, tick, 5, OutcomeOK)
	}
	got := map[uint64]string{}
	for _, sp := range r.Snapshot() {
		got[sp.ID] = sp.Outcome
	}
	for id, out := range bad {
		if got[id] != out {
			t.Errorf("span %#x (%s) not retained; snapshot has %q", id, out, got[id])
		}
	}
	if st := r.Stats(); st.Shed != 1 || st.Retained < 4 {
		t.Errorf("stats = %+v, want Shed=1 Retained>=4", st)
	}
}

func TestSlowTailRetention(t *testing.T) {
	r := NewRecorder(Config{Capacity: 512})
	var tick int64
	// Establish a tight duration distribution, then emit one huge outlier
	// and flood on; the outlier must be retained as slow.
	for i := uint64(1); i <= 200; i++ {
		tick += 10
		reqSpan(t, r, 1, i, tick, 5, OutcomeOK)
	}
	slow := reqSpan(t, r, 3, 1, tick+10, 100000, OutcomeOK)
	for _, sp := range r.Snapshot() {
		if sp.ID == slow {
			if !retainedIn(r, slow) {
				t.Fatalf("slow span present but not in the retained ring")
			}
			return
		}
	}
	t.Fatalf("slow outlier %#x missing from snapshot", slow)
}

// retainedIn reports whether id sits in the retained ring.
func retainedIn(r *Recorder, id uint64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, sp := range r.ret.buf {
		if sp != nil && sp.ID == id {
			return true
		}
	}
	return false
}

func TestGCSpansAndPinning(t *testing.T) {
	r := NewRecorder(Config{Capacity: 8})
	parent := reqSpan(t, r, 1, 1, 100, 10, OutcomeOK) // lands in bulk
	g := r.Start(KindGC, "collect", GCID(1), parent, 120)
	g.ReclaimedBytes = 4096
	r.PinID(parent)
	r.Finish(g, 130, OutcomeOK)
	// Flood: the pinned parent and the GC child must survive 100 evictions.
	var tick int64 = 200
	for i := uint64(2); i <= 101; i++ {
		tick += 10
		reqSpan(t, r, 1, i, tick, 5, OutcomeOK)
	}
	snap := r.Snapshot()
	byID := map[uint64]Span{}
	for _, sp := range snap {
		byID[sp.ID] = sp
	}
	p, ok := byID[parent]
	if !ok || !p.Pinned {
		t.Fatalf("pinned parent %#x missing or unpinned: %+v", parent, p)
	}
	child, ok := byID[GCID(1)]
	if !ok || child.Parent != parent || child.ReclaimedBytes != 4096 {
		t.Fatalf("gc child wrong: %+v", child)
	}
	ptrs := make([]*Span, 0, len(snap))
	for i := range snap {
		ptrs = append(ptrs, &snap[i])
	}
	if dangling, err := CheckAll(ptrs); err != nil || dangling != 0 {
		t.Fatalf("CheckAll = (%d, %v), want (0, nil)", dangling, err)
	}
}

func TestPendingPinConsumedAtFinish(t *testing.T) {
	r := NewRecorder(Config{Capacity: 8})
	id := RequestID(4, 1)
	sp := r.Start(KindRequest, "set", id, 0, 10)
	// GC names the parent before the session finishes it: the pin parks.
	r.PinID(id)
	sp.SetStage(StageService, 5)
	r.Finish(sp, 20, OutcomeOK)
	if !retainedIn(r, id) {
		t.Fatalf("span pinned before Finish was not retained")
	}
	for _, s := range r.Snapshot() {
		if s.ID == id && !s.Pinned {
			t.Fatalf("span %#x retained but not marked pinned", id)
		}
	}
}

// TestSpikeCallback: a window of 64 request spans, every other one shed,
// trips OnSpike once with the whole window's counts.
func TestSpikeCallback(t *testing.T) {
	fired := 0
	var gotShed, gotWin int
	r := NewRecorder(Config{Capacity: 32,
		OnSpike: func(shed, window int) { fired++; gotShed, gotWin = shed, window }})
	var tick int64
	for i := uint64(1); i <= spikeWindow; i++ {
		tick += 10
		out := OutcomeOK
		if i%2 == 0 {
			out = OutcomeShed
		}
		reqSpan(t, r, 1, i, tick, 1, out)
	}
	if fired != 1 {
		t.Fatalf("OnSpike fired %d times, want 1", fired)
	}
	if gotShed != spikeWindow/2 || gotWin != spikeWindow {
		t.Fatalf("OnSpike(%d, %d), want (%d, %d)", gotShed, gotWin, spikeWindow/2, spikeWindow)
	}
	if st := r.Stats(); st.Spikes != 1 {
		t.Fatalf("stats.Spikes = %d, want 1", st.Spikes)
	}
}

// TestJSONLRoundTripAndCheck: a dump is an obs event stream of span
// envelopes — obs.ReadAll reads it back, CheckAll passes it, and dumping the
// same recorder twice writes the same bytes.
func TestJSONLRoundTripAndCheck(t *testing.T) {
	r := NewRecorder(Config{Capacity: 16})
	parent := reqSpan(t, r, 1, 1, 100, 50, OutcomeShed)
	g := r.Start(KindGC, "collect", GCID(7), parent, 160)
	r.Finish(g, 170, OutcomeOK)

	var buf bytes.Buffer
	n, err := r.Dump(&buf)
	if err != nil || n != 2 {
		t.Fatalf("Dump = (%d, %v), want (2, nil)", n, err)
	}
	envs, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	spans := make([]*Span, 0, len(envs))
	for _, e := range envs {
		if e.Type != TypeSpan {
			t.Fatalf("dump holds a %q envelope", e.Type)
		}
		spans = append(spans, e.Span)
	}
	if len(spans) != 2 {
		t.Fatalf("read %d spans, want 2", len(spans))
	}
	if dangling, err := CheckAll(spans); err != nil || dangling != 0 {
		t.Fatalf("CheckAll = (%d, %v)", dangling, err)
	}
	var buf2 bytes.Buffer
	if _, err := r.Dump(&buf2); err != nil {
		t.Fatalf("second Dump: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatalf("two dumps of the same recorder differ")
	}
}

// TestDumpBytes pins a dump of one request span and the GC span it
// triggered to literal bytes: the /debug/traces and odbgcd -traces format
// that readers outside the process parse.
func TestDumpBytes(t *testing.T) {
	const want = `{"v":1,"seq":0,"type":"span","span":{"id":3145733,"kind":"request","op":"set","outcome":"ok","session":3,"seq":5,"start":1000,"end":2000,"stages":[40,20,300,500,60],"pinned":true}}
{"v":1,"seq":1,"type":"span","span":{"id":9223372036854775810,"parent":3145733,"kind":"gc","op":"collect","outcome":"ok","seq":2,"start":1900,"end":2150,"stages":[0,0,0,250,0],"partition":4,"reclaimed_bytes":8192,"reclaimed_objects":31,"traced_objects":12,"estimate_frac":0.125,"target_frac":0.1,"breaker":"closed","queued_behind":3}}
`
	r := NewRecorder(Config{Capacity: 8})
	req := r.Start(KindRequest, "set", RequestID(3, 5), 0, 1000)
	req.Session, req.Seq = 3, 5
	for stage, d := range [NumStages]int64{40, 20, 300, 500, 60} {
		req.SetStage(stage, d)
	}
	g := r.Start(KindGC, "collect", GCID(2), RequestID(3, 5), 1900)
	g.Seq = 2
	g.Partition, g.ReclaimedBytes, g.ReclaimedObjects, g.TracedObjects = 4, 8192, 31, 12
	g.EstimateFrac, g.TargetFrac = 0.125, 0.1
	g.Breaker, g.QueuedBehind = "closed", 3
	g.SetStage(StageService, 250)
	r.PinID(RequestID(3, 5))
	r.Finish(g, 2150, OutcomeOK)
	r.Finish(req, 2000, OutcomeOK)
	var buf bytes.Buffer
	if _, err := r.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != want {
		t.Errorf("dump bytes changed:\n got %s\nwant %s", got, want)
	}
}

// TestFullPinTableDropsOnlyTheOldest: one pin more than the pending table
// holds, all parked before any span finishes, costs the oldest pin and no
// other.
func TestFullPinTableDropsOnlyTheOldest(t *testing.T) {
	r := NewRecorder(Config{Capacity: 2 * maxPendingPins})
	spans := make([]*Span, maxPendingPins+1)
	for i := range spans {
		seq := uint64(i + 1)
		spans[i] = r.Start(KindRequest, "set", RequestID(1, seq), 0, int64(seq))
		r.PinID(RequestID(1, seq))
	}
	for i, sp := range spans {
		r.Finish(sp, int64(i+2), OutcomeOK)
	}
	snap := r.Snapshot()
	if len(snap) != len(spans) {
		t.Fatalf("snapshot holds %d of %d spans", len(snap), len(spans))
	}
	for _, sp := range snap {
		if want := sp.ID != RequestID(1, 1); sp.Pinned != want {
			t.Errorf("seq %d: pinned %v, want %v", sp.ID&(1<<20-1), sp.Pinned, want)
		}
	}
}

func TestSnapshotOrderedByStart(t *testing.T) {
	r := NewRecorder(Config{Capacity: 32})
	reqSpan(t, r, 1, 1, 300, 5, OutcomeShed)
	reqSpan(t, r, 1, 2, 100, 5, OutcomeShed)
	reqSpan(t, r, 1, 3, 200, 5, OutcomeShed)
	snap := r.Snapshot()
	for i := 1; i < len(snap); i++ {
		if snap[i-1].Start > snap[i].Start {
			t.Fatalf("snapshot out of order at %d: %d > %d", i, snap[i-1].Start, snap[i].Start)
		}
	}
}

// TestStartFinishAllocatesNothing: once the rings are full, a span that
// starts and finishes reuses the one its Finish evicted, through the pool:
// request spans through the bulk ring (and the retained one when slow), GC
// spans through the retained ring.
func TestStartFinishAllocatesNothing(t *testing.T) {
	r := NewRecorder(Config{Capacity: 16})
	var seq uint64
	request := func() {
		seq++
		reqSpan(t, r, 1, seq, int64(seq), int64(seq%7), OutcomeOK)
	}
	gc := func() {
		seq++
		sp := r.Start(KindGC, "collect", GCID(seq), RequestID(1, seq), int64(seq))
		r.Finish(sp, int64(seq)+3, OutcomeOK)
	}
	for i := 0; i < 64; i++ {
		request()
		gc()
	}
	for _, c := range []struct {
		name string
		fn   func()
	}{{"request", request}, {"gc", gc}} {
		if n := testing.AllocsPerRun(1000, c.fn); n != 0 {
			t.Errorf("%s span: %v allocations per Start and Finish, want 0", c.name, n)
		}
	}
}
