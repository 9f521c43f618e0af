package obs

import "testing"

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
