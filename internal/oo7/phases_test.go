package oo7

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"odbgc/internal/objstore"
	"odbgc/internal/trace"
)

// mustGet fetches an object the test knows exists, failing the test if not.
func mustGet(t *testing.T, st *objstore.Store, oid objstore.OID) *objstore.Object {
	t.Helper()
	o := st.Get(oid)
	if o == nil {
		t.Fatalf("no object %v in store", oid)
	}
	return o
}

func TestPhaseOrderEnforced(t *testing.T) {
	g, err := NewGenerator(SmallPrime(3), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Reorg1(); err == nil {
		t.Error("Reorg1 before GenDB accepted")
	}
	if err := g.Traverse(); err == nil {
		t.Error("Traverse before GenDB accepted")
	}
	if err := g.GenDB(); err != nil {
		t.Fatal(err)
	}
	if err := g.GenDB(); err == nil {
		t.Error("double GenDB accepted")
	}
	if err := g.Reorg1(); err != nil {
		t.Fatal(err)
	}
	if err := g.Reorg1(); err == nil {
		t.Error("double Reorg1 accepted")
	}
}

func TestParamsValidation(t *testing.T) {
	bad := []func(*Params){
		func(p *Params) { p.NumModules = 0 },
		func(p *Params) { p.NumAtomicPerComp = 1 },
		func(p *Params) { p.NumConnPerAtomic = 0 },
		func(p *Params) { p.NumConnPerAtomic = p.NumAtomicPerComp },
		func(p *Params) { p.NumCompPerModule = 0 },
		func(p *Params) { p.NumAssmPerAssm = 0 },
		func(p *Params) { p.NumAssmLevels = 0 },
		func(p *Params) { p.NumCompPerAssm = 0 },
		func(p *Params) { p.DocumentBytes = 0 },
		func(p *Params) { p.AtomicBytes = -1 },
		func(p *Params) { p.DocReplaceProb = 1.5 },
		func(p *Params) { p.TraverseUpdateEvery = -1 },
		func(p *Params) { p.DeclusterBatch = -1 },
		func(p *Params) { p.IdleBetweenPhases = -1 },
		// Too few base-assembly slots to reference every composite.
		func(p *Params) { p.NumAssmLevels = 2; p.NumCompPerModule = 10 },
	}
	for i, mutate := range bad {
		p := SmallPrime(3)
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("bad params #%d accepted", i)
		}
	}
	for _, conn := range []int{3, 6, 9} {
		if err := SmallPrime(conn).Validate(); err != nil {
			t.Errorf("SmallPrime(%d) invalid: %v", conn, err)
		}
		if err := Small(conn).Validate(); err != nil {
			t.Errorf("Small(%d) invalid: %v", conn, err)
		}
	}
}

func TestDerivedCounts(t *testing.T) {
	p := SmallPrime(3)
	if got := p.NumComplexAssemblies(); got != 121 { // 1+3+9+27+81
		t.Errorf("complex assemblies = %d, want 121", got)
	}
	if got := p.NumBaseAssemblies(); got != 243 { // 3^5
		t.Errorf("base assemblies = %d, want 243", got)
	}
	if got := p.ManualSegments(); got != 13 {
		t.Errorf("manual segments = %d, want 13", got)
	}
	s := Small(3)
	if got := s.NumBaseAssemblies(); got != 729 { // 3^6
		t.Errorf("Small base assemblies = %d, want 729", got)
	}
}

func TestSmallVariantBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("Small database is 3.3x larger")
	}
	g, err := NewGenerator(Small(3), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.GenDB(); err != nil {
		t.Fatal(err)
	}
	info := g.Info()
	if info.ByClass[objstore.ClassCompositePart].Count != 500 {
		t.Errorf("Small composites = %d", info.ByClass[objstore.ClassCompositePart].Count)
	}
	if garb := g.Store().Len() - g.Store().Reachable().Len(); garb != 0 {
		t.Errorf("fresh Small database has %d unreachable objects", garb)
	}
}

// structureInvariants checks the structural properties that must hold after
// any phase: every live atomic part has full out-degree, every composite has
// exactly NumAtomicPerComp live parts, every connection targets a live part
// of the same composite.
func structureInvariants(t *testing.T, g *Generator) {
	t.Helper()
	p := g.Params()
	st := g.Store()
	live := st.Reachable()
	for _, mod := range g.modules {
		for ci, c := range mod.composites {
			liveParts := 0
			for _, part := range c.parts {
				if part.IsNil() {
					continue
				}
				liveParts++
				if !live.Get(part) {
					t.Fatalf("composite %d: tracked part %v not reachable", ci, part)
				}
				po := mustGet(t, st, part)
				conns := 0
				for _, conn := range po.Slots {
					if conn.IsNil() {
						t.Fatalf("composite %d: part %v has a vacant connection slot after reorg", ci, part)
					}
					conns++
					target := mustGet(t, st, conn).Slots[0]
					if target.IsNil() {
						t.Fatalf("connection %v has nil target", conn)
					}
					if !live.Get(target) {
						t.Fatalf("connection %v targets dead part %v", conn, target)
					}
					if _, inScope := slices.BinarySearch(c.scope, target); !inScope || g.meta[target].owner != c {
						t.Fatalf("connection %v escapes its composite", conn)
					}
				}
				if conns != p.NumConnPerAtomic {
					t.Fatalf("part %v out-degree %d, want %d", part, conns, p.NumConnPerAtomic)
				}
			}
			if liveParts != p.NumAtomicPerComp {
				t.Fatalf("composite %d has %d live parts, want %d", ci, liveParts, p.NumAtomicPerComp)
			}
		}
	}
}

func TestStructureInvariantsAfterEachPhase(t *testing.T) {
	g, err := NewGenerator(SmallPrime(3), 17)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.GenDB(); err != nil {
		t.Fatal(err)
	}
	structureInvariants(t, g)
	if err := g.Reorg1(); err != nil {
		t.Fatal(err)
	}
	structureInvariants(t, g)
	if err := g.Traverse(); err != nil {
		t.Fatal(err)
	}
	structureInvariants(t, g)
	if err := g.Reorg2(); err != nil {
		t.Fatal(err)
	}
	structureInvariants(t, g)
}

// TestReorgConservesLiveSize: reorganizations delete and reinsert the same
// number of parts, so live bytes are unchanged (modulo replaced documents,
// which swap equal sizes).
func TestReorgConservesLiveSize(t *testing.T) {
	g, err := NewGenerator(SmallPrime(3), 23)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.GenDB(); err != nil {
		t.Fatal(err)
	}
	liveBytes := func() int {
		live := g.Store().Reachable()
		n := 0
		live.ForEach(func(oid objstore.OID, _ bool) { n += int(mustGet(t, g.Store(), oid).Size) })
		return n
	}
	before := liveBytes()
	if err := g.Reorg1(); err != nil {
		t.Fatal(err)
	}
	after := liveBytes()
	if before != after {
		t.Errorf("live bytes changed across Reorg1: %d -> %d", before, after)
	}
}

func TestTraverseIsReadOnly(t *testing.T) {
	g, err := NewGenerator(SmallPrime(3), 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.GenDB(); err != nil {
		t.Fatal(err)
	}
	mark := g.Trace().Len()
	if err := g.Traverse(); err != nil {
		t.Fatal(err)
	}
	for _, e := range g.Trace().Events[mark:] {
		switch e.Kind {
		case trace.KindAccess, trace.KindPhase:
		default:
			t.Fatalf("Traverse emitted a %v event", e.Kind)
		}
	}
}

func TestTraverseCoversAllParts(t *testing.T) {
	g, err := NewGenerator(SmallPrime(3), 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.GenDB(); err != nil {
		t.Fatal(err)
	}
	mark := g.Trace().Len()
	if err := g.Traverse(); err != nil {
		t.Fatal(err)
	}
	accessed := make(map[objstore.OID]bool)
	for _, e := range g.Trace().Events[mark:] {
		if e.Kind == trace.KindAccess {
			accessed[e.OID] = true
		}
	}
	missing := 0
	g.Store().ForEach(func(o *objstore.Object) {
		if o.Class == objstore.ClassAtomicPart && !accessed[o.OID] {
			missing++
		}
	})
	if missing > 0 {
		t.Errorf("Traverse missed %d atomic parts", missing)
	}
}

func TestTraverseUpdates(t *testing.T) {
	p := SmallPrime(3)
	p.TraverseUpdateEvery = 10
	g, err := NewGenerator(p, 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.GenDB(); err != nil {
		t.Fatal(err)
	}
	if err := g.Traverse(); err != nil {
		t.Fatal(err)
	}
	s := trace.ComputeStats(g.Trace())
	if s.Updates == 0 {
		t.Error("TraverseUpdateEvery produced no update events")
	}
}

func TestDocReplaceProbZeroAndOne(t *testing.T) {
	countDocs := func(prob float64) int {
		p := SmallPrime(3)
		p.DocReplaceProb = prob
		g, err := NewGenerator(p, 33)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.GenDB(); err != nil {
			t.Fatal(err)
		}
		if err := g.Reorg1(); err != nil {
			t.Fatal(err)
		}
		docs := 0
		for _, e := range g.Trace().Events {
			if e.Kind == trace.KindOverwrite {
				for _, d := range e.Dead {
					if mustGet(t, g.Store(), d.OID).Class == objstore.ClassDocument {
						docs++
					}
				}
			}
		}
		return docs
	}
	if n := countDocs(0); n != 0 {
		t.Errorf("prob 0 replaced %d documents", n)
	}
	if n := countDocs(1); n != 150 {
		t.Errorf("prob 1 replaced %d documents, want 150", n)
	}
}

func TestDeclusterBatchAffectsLayout(t *testing.T) {
	// With batch 1, Reorg2 degenerates to per-composite processing
	// (clustered); with a large batch the interleaving must differ.
	run := func(batch int) string {
		p := SmallPrime(3)
		p.DeclusterBatch = batch
		g, err := NewGenerator(p, 5)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.GenDB(); err != nil {
			t.Fatal(err)
		}
		if err := g.Reorg2(); err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, e := range g.Trace().Events {
			if e.Kind == trace.KindCreate {
				sb.WriteString(e.OID.String())
				sb.WriteByte(',')
			}
		}
		return sb.String()
	}
	if run(1) == run(50) {
		t.Error("batch size has no effect on creation order")
	}
}

// Property: the full trace validates for random parameter variations.
func TestRandomParamsProperty(t *testing.T) {
	f := func(seed int64, connSel, atomics uint8) bool {
		p := SmallPrime(3)
		p.NumAtomicPerComp = 4 + int(atomics%8)
		p.NumConnPerAtomic = 1 + int(connSel)%(p.NumAtomicPerComp-1)
		p.NumCompPerModule = 10
		p.NumAssmLevels = 3
		tr, err := FullTrace(p, seed)
		if err != nil {
			t.Logf("generate: %v", err)
			return false
		}
		if err := trace.Validate(tr); err != nil {
			t.Logf("validate: %v", err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestMediumParamsAndSegmentedDocuments(t *testing.T) {
	m := Medium(3)
	if err := m.Validate(); err != nil {
		t.Fatalf("Medium invalid: %v", err)
	}
	if m.DocSegments() < 2 {
		t.Fatalf("Medium documents should need multiple segments, got %d", m.DocSegments())
	}
	// A scaled-down configuration with multi-segment documents must
	// generate, validate, and keep its structure.
	p := SmallPrime(3)
	p.DocumentBytes = 20000 // 3 segments of 7900
	p.NumCompPerModule = 12
	p.NumAssmLevels = 3
	p.DocReplaceProb = 1.0
	g, err := NewGenerator(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.GenDB(); err != nil {
		t.Fatal(err)
	}
	info := g.Info()
	if got, want := info.ByClass[objstore.ClassDocument].Count, 12*p.DocSegments(); got != want {
		t.Errorf("document segments = %d, want %d", got, want)
	}
	if info.Objects != p.ExpectedObjects() {
		t.Errorf("objects = %d, want %d", info.Objects, p.ExpectedObjects())
	}
	if err := g.Reorg1(); err != nil {
		t.Fatal(err)
	}
	if err := trace.Validate(g.Trace()); err != nil {
		t.Fatalf("segmented-document trace invalid: %v", err)
	}
	// Every composite's document chain was replaced (prob 1): each old
	// chain (3 segments x ~6.7KB) must appear as dead bytes.
	s := trace.ComputeStats(g.Trace())
	if s.GarbageBytes < 12*20000 {
		t.Errorf("garbage %d too small for 12 replaced 20KB documents", s.GarbageBytes)
	}
}

func TestMultiModuleDatabase(t *testing.T) {
	p := SmallPrime(3)
	p.NumModules = 2
	p.NumCompPerModule = 15
	p.NumAssmLevels = 3
	tr, err := FullTrace(p, 6)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Validate(tr); err != nil {
		t.Fatalf("multi-module trace invalid: %v", err)
	}
	g, err := NewGenerator(p, 6)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.GenDB(); err != nil {
		t.Fatal(err)
	}
	info := g.Info()
	if got := info.ByClass[objstore.ClassModule].Count; got != 2 {
		t.Errorf("modules = %d, want 2", got)
	}
	if got := info.ByClass[objstore.ClassCompositePart].Count; got != 30 {
		t.Errorf("composites = %d, want 30", got)
	}
	if len(g.Store().Roots()) != 2 {
		t.Errorf("roots = %d, want one per module", len(g.Store().Roots()))
	}
}

func TestMediumBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("Medium database is ~100 MB")
	}
	g, err := NewGenerator(Medium(3), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.GenDB(); err != nil {
		t.Fatal(err)
	}
	info := g.Info()
	t.Logf("Medium: %d objects, %.1f MB", info.Objects, float64(info.Bytes)/(1<<20))
	if info.Objects != Medium(3).ExpectedObjects() {
		t.Errorf("objects = %d, want %d", info.Objects, Medium(3).ExpectedObjects())
	}
	if mb := float64(info.Bytes) / (1 << 20); mb < 80 || mb > 150 {
		t.Errorf("Medium size %.1f MB outside the expected ~100 MB band", mb)
	}
	if garb := info.Objects - g.Store().Reachable().Len(); garb != 0 {
		t.Errorf("fresh Medium database has %d unreachable objects", garb)
	}
}
