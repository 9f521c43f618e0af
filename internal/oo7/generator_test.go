package oo7

import (
	"testing"

	"odbgc/internal/objstore"
	"odbgc/internal/trace"
)

func TestFullTraceValidates(t *testing.T) {
	for _, conn := range []int{3, 6, 9} {
		tr, err := FullTrace(SmallPrime(conn), 1)
		if err != nil {
			t.Fatalf("conn=%d: FullTrace: %v", conn, err)
		}
		if err := trace.Validate(tr); err != nil {
			t.Fatalf("conn=%d: invalid trace: %v", conn, err)
		}
	}
}

func TestTraceStatsShape(t *testing.T) {
	p := SmallPrime(3)
	tr, err := FullTrace(p, 7)
	if err != nil {
		t.Fatal(err)
	}
	s := trace.ComputeStats(tr)
	t.Logf("events=%d creates=%d accesses=%d overwrites=%d init=%d garbage=%dB (%d objects) B/ow=%.1f",
		s.Events, s.Creates, s.Accesses, s.Overwrites, s.InitStores,
		s.GarbageBytes, s.GarbageObjects, s.BytesPerOverwrite)
	if got, want := len(s.Phases), 4; got != want {
		t.Fatalf("phases = %v, want 4", s.Phases)
	}
	for i, want := range Phases {
		if s.Phases[i] != want {
			t.Errorf("phase %d = %q, want %q", i, s.Phases[i], want)
		}
	}
	if s.Overwrites == 0 || s.GarbageBytes == 0 {
		t.Fatalf("trace has no overwrites or garbage: %+v", s)
	}
	// The paper's central §2.1 observation: garbage per overwrite is several
	// times larger than average-object-size/average-connectivity would
	// predict. Check the naive prediction underestimates by at least 2x.
	g, err := NewGenerator(p, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.GenDB(); err != nil {
		t.Fatal(err)
	}
	// §2.1 computes the naive rate from the atomic-part connectivity of
	// ~4: one object's worth of garbage every ~4 overwrites.
	info := g.Info()
	naive := info.AvgObjectSize / info.AvgAtomicInDegree
	if s.BytesPerOverwrite < 2*naive {
		t.Errorf("garbage/overwrite %.1f not >= 2x naive prediction %.1f", s.BytesPerOverwrite, naive)
	}
}

func TestDatabaseInfo(t *testing.T) {
	g, err := NewGenerator(SmallPrime(3), 42)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.GenDB(); err != nil {
		t.Fatal(err)
	}
	info := g.Info()
	t.Logf("\n%s", info)
	if info.Objects != SmallPrime(3).ExpectedObjects() {
		t.Errorf("objects = %d, want %d", info.Objects, SmallPrime(3).ExpectedObjects())
	}
	if info.Bytes != SmallPrime(3).ExpectedBytes() {
		t.Errorf("bytes = %d, want %d", info.Bytes, SmallPrime(3).ExpectedBytes())
	}
	// Atomic parts should have in-degree ≈ 1 + NumConnPerAtomic ≈ 4.
	if info.AvgAtomicInDegree < 3.5 || info.AvgAtomicInDegree > 4.5 {
		t.Errorf("atomic in-degree = %.2f, want ≈ 4", info.AvgAtomicInDegree)
	}
	// Everything must be reachable right after GenDB.
	if garb := g.Store().Len() - g.Store().Reachable().Len(); garb != 0 {
		t.Errorf("fresh database has %d unreachable objects", garb)
	}
	for _, cs := range []struct {
		class objstore.Class
		count int
	}{
		{objstore.ClassModule, 1},
		{objstore.ClassCompositePart, 150},
		{objstore.ClassAtomicPart, 3000},
		{objstore.ClassConnection, 9000},
		{objstore.ClassDocument, 150},
		{objstore.ClassAssembly, 121 + 243},
	} {
		if got := info.ByClass[cs.class].Count; got != cs.count {
			t.Errorf("%v count = %d, want %d", cs.class, got, cs.count)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a, err := FullTrace(SmallPrime(3), 99)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FullTrace(SmallPrime(3), 99)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Events {
		ea, eb := a.Events[i], b.Events[i]
		if ea.Kind != eb.Kind || ea.OID != eb.OID || ea.Slot != eb.Slot ||
			ea.Old != eb.Old || ea.New != eb.New || len(ea.Dead) != len(eb.Dead) {
			t.Fatalf("event %d differs: %v vs %v", i, ea.String(), eb.String())
		}
	}
	c, err := FullTrace(SmallPrime(3), 100)
	if err != nil {
		t.Fatal(err)
	}
	same := c.Len() == a.Len()
	if same {
		for i := range a.Events {
			if a.Events[i].String() != c.Events[i].String() {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}
