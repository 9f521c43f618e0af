package workload

import (
	"testing"

	"odbgc/internal/trace"
)

func TestChurnValidates(t *testing.T) {
	tr, err := Churn(DefaultChurn(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Validate(tr); err != nil {
		t.Fatalf("churn trace invalid: %v", err)
	}
	s := trace.ComputeStats(tr)
	t.Logf("events=%d overwrites=%d garbage=%dB (%.1f B/ow) phases=%v",
		s.Events, s.Overwrites, s.GarbageBytes, s.BytesPerOverwrite, s.Phases)
	if len(s.Phases) != 5 {
		t.Errorf("phases = %v", s.Phases)
	}
	wantOps := DefaultChurn().SteadyOps*2 + DefaultChurn().BurstOps
	if s.Overwrites != wantOps {
		t.Errorf("overwrites = %d, want %d", s.Overwrites, wantOps)
	}
	// Every replace kills exactly one leaf: garbage objects == overwrites.
	if s.GarbageObjects != wantOps {
		t.Errorf("garbage objects = %d, want %d", s.GarbageObjects, wantOps)
	}
}

func TestChurnParamsValidation(t *testing.T) {
	bad := []func(*ChurnParams){
		func(p *ChurnParams) { p.Dirs = 0 },
		func(p *ChurnParams) { p.FilesPerDir = 0 },
		func(p *ChurnParams) { p.FileSizeMax = p.FileSizeMin - 1 },
		func(p *ChurnParams) { p.DirBytes = 0 },
		func(p *ChurnParams) { p.SteadyOps = -1 },
		func(p *ChurnParams) { p.HotShare = 1.5 },
	}
	for i, mutate := range bad {
		p := DefaultChurn()
		mutate(&p)
		if _, err := Churn(p, 1); err == nil {
			t.Errorf("bad params #%d accepted", i)
		}
	}
}

func TestChurnDeterministic(t *testing.T) {
	a, err := Churn(DefaultChurn(), 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Churn(DefaultChurn(), 9)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Events {
		if a.Events[i].String() != b.Events[i].String() {
			t.Fatalf("event %d differs", i)
		}
	}
}

func TestChurnHotSkew(t *testing.T) {
	p := DefaultChurn()
	tr, err := Churn(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	// The hot set is the first Dirs*HotFraction directories created, i.e.
	// the lowest directory OIDs. Count overwrites per directory.
	hits := map[uint64]int{}
	var dirOIDs []uint64
	for _, e := range tr.Events {
		if e.Kind == trace.KindRoot {
			dirOIDs = append(dirOIDs, uint64(e.OID))
		}
		if e.Kind == trace.KindOverwrite && !e.Init {
			hits[uint64(e.OID)]++
		}
	}
	hotN := int(float64(p.Dirs) * p.HotFraction)
	hotHits, totHits := 0, 0
	for i, d := range dirOIDs {
		totHits += hits[d]
		if i < hotN {
			hotHits += hits[d]
		}
	}
	share := float64(hotHits) / float64(totHits)
	t.Logf("hot set (%d dirs of %d) received %.1f%% of churn", hotN, p.Dirs, share*100)
	// HotShare 0.8 plus the hot set's share of uniform picks.
	if share < 0.7 {
		t.Errorf("hot share %.2f below expectation", share)
	}
}

func TestChurnQuietPhaseIsReadOnly(t *testing.T) {
	tr, err := Churn(DefaultChurn(), 5)
	if err != nil {
		t.Fatal(err)
	}
	inQuiet := false
	for _, e := range tr.Events {
		if e.Kind == trace.KindPhase {
			inQuiet = e.Label.String() == PhaseQuiet
			continue
		}
		if inQuiet && e.Kind != trace.KindAccess {
			t.Fatalf("quiet phase contains a %v event", e.Kind)
		}
	}
}
