package span

import (
	"bytes"
	"strings"
	"testing"
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

func TestIDSpaces(t *testing.T) {
	if got := RequestID(3, 7); got != 3<<20|7 {
		t.Fatalf("RequestID(3,7) = %#x", got)
	}
	if IsGCID(RequestID(1, 1)) {
		t.Fatalf("request ID landed in the GC space")
	}
	if !IsGCID(GCID(1)) {
		t.Fatalf("GC ID outside the GC space")
	}
	// Distinct (session, seq) pairs within the sequence field width give
	// distinct IDs.
	seen := map[uint64]bool{}
	for s := uint64(1); s <= 8; s++ {
		for q := uint64(1); q <= 64; q++ {
			id := RequestID(s, q)
			if seen[id] {
				t.Fatalf("duplicate ID %#x for (%d,%d)", id, s, q)
			}
			seen[id] = true
		}
	}
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
	spans, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if len(spans) != 2 {
		t.Fatalf("read %d spans, want 2", len(spans))
	}
	if dangling, err := CheckAll(spans); err != nil || dangling != 0 {
		t.Fatalf("CheckAll = (%d, %v)", dangling, err)
	}
	// Byte-determinism: dumping the same recorder twice is identical.
	var buf2 bytes.Buffer
	if _, err := r.Dump(&buf2); err != nil {
		t.Fatalf("second Dump: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatalf("two dumps of the same recorder differ")
	}
}

func TestReadAllRejectsBadEnvelopes(t *testing.T) {
	cases := map[string]string{
		"bad version": `{"v":9,"seq":0,"type":"span","span":{"id":1,"kind":"request","outcome":"ok"}}`,
		"bad type":    `{"v":1,"seq":0,"type":"event","span":{"id":1,"kind":"request","outcome":"ok"}}`,
		"no payload":  `{"v":1,"seq":0,"type":"span"}`,
		"seq gap":     `{"v":1,"seq":5,"type":"span","span":{"id":1,"kind":"request","outcome":"ok"}}`,
		"not json":    `nope`,
	}
	for name, line := range cases {
		if _, err := ReadAll(strings.NewReader(line + "\n")); err == nil {
			t.Errorf("%s: ReadAll accepted %q", name, line)
		}
	}
}

func TestCheckCatchesCorruption(t *testing.T) {
	ok := Span{ID: RequestID(1, 1), Kind: KindRequest, Outcome: OutcomeOK, Start: 10, End: 30}
	ok.Stages[StageService] = 15
	if err := ok.Check(); err != nil {
		t.Fatalf("valid span rejected: %v", err)
	}
	bad := []Span{ok, ok, ok, ok, ok}
	bad[0].ID = 0
	bad[1].End = 5 // before start
	bad[2].Stages[StageQueue] = -1
	bad[3].Stages[StageService] = 1000 // exceeds duration
	bad[4].Outcome = "maybe"
	for i := range bad {
		if err := bad[i].Check(); err == nil {
			t.Errorf("corruption %d not caught: %+v", i, bad[i])
		}
	}
	// A GC span parented to another GC span is structural corruption.
	g := Span{ID: GCID(2), Parent: GCID(1), Kind: KindGC, Outcome: OutcomeOK}
	if err := g.Check(); err == nil {
		t.Errorf("gc-parented gc span not caught")
	}
	// Dangling parent is counted, not fatal.
	d := &Span{ID: GCID(3), Parent: RequestID(9, 9), Kind: KindGC, Outcome: OutcomeOK}
	if dangling, err := CheckAll([]*Span{d}); err != nil || dangling != 1 {
		t.Errorf("CheckAll dangling = (%d, %v), want (1, nil)", dangling, err)
	}
	// Duplicate IDs are fatal.
	a, b := ok, ok
	if _, err := CheckAll([]*Span{&a, &b}); err == nil {
		t.Errorf("duplicate IDs not caught")
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
