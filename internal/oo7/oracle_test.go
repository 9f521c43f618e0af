package oo7

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"odbgc/internal/objstore"
	"odbgc/internal/trace"
)

// refScopeDead is the oracle as it stood while a composite's scope was a hash
// map: a fresh visited map per call, a walk over the scope map, a sort. It is
// kept as the reference the OID-indexed oracle is checked against.
func refScopeDead(st *objstore.Store, root objstore.OID, scope map[objstore.OID]struct{}) []trace.DeadObject {
	visited := map[objstore.OID]struct{}{root: {}}
	stack := []objstore.OID{root}
	for len(stack) > 0 {
		oid := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, t := range st.Get(oid).Slots {
			if t.IsNil() {
				continue
			}
			if _, inScope := scope[t]; !inScope {
				continue
			}
			if _, seen := visited[t]; seen {
				continue
			}
			visited[t] = struct{}{}
			stack = append(stack, t)
		}
	}
	var deadOIDs []objstore.OID
	for oid := range scope {
		if _, ok := visited[oid]; !ok {
			deadOIDs = append(deadOIDs, oid)
		}
	}
	slices.Sort(deadOIDs)
	var dead []trace.DeadObject
	for _, oid := range deadOIDs {
		dead = append(dead, trace.DeadObject{OID: oid, Size: int(st.Get(oid).Size)})
		delete(scope, oid)
	}
	return dead
}

// refOracle rebuilds every composite's private scope from the trace alone and
// recomputes each overwrite's dead list with refScopeDead. It learns who owns
// a private object the way a reader of the trace can: the object belongs to
// the composite whose structure first points at it.
type refOracle struct {
	st     *objstore.Store
	scopes map[objstore.OID]map[objstore.OID]struct{} // composite part → private scope
	owner  map[objstore.OID]objstore.OID              // private object → composite part
}

// check replays the trace, comparing the dead list of every overwrite issued
// from inside a composite — scoped or not — with the reference's, and the
// subtree released by a composite's last reference with part + scope.
func (r *refOracle) check(tr *trace.Trace) error {
	for i := range tr.Events {
		e := &tr.Events[i]
		switch e.Kind {
		case trace.KindCreate:
			if _, err := r.st.CreateWithOID(e.OID, e.Class, e.Size, e.Slots); err != nil {
				return err
			}
			if e.Class == objstore.ClassCompositePart {
				r.scopes[e.OID] = map[objstore.OID]struct{}{}
			}
		case trace.KindOverwrite:
			if _, err := r.st.SetSlot(e.OID, e.Slot, e.New); err != nil {
				return err
			}
			comp, private := r.owner[e.OID]
			if _, isComp := r.scopes[e.OID]; isComp {
				comp, private = e.OID, true
			}
			var want []trace.DeadObject
			switch {
			case private:
				if _, owned := r.owner[e.New]; !owned && !e.New.IsNil() {
					r.owner[e.New] = comp
					r.scopes[comp][e.New] = struct{}{}
				}
				if e.Init {
					continue
				}
				want = refScopeDead(r.st, comp, r.scopes[comp])
			case len(e.Dead) > 0:
				// Shared structure let go of a composite for the last time.
				want = []trace.DeadObject{{OID: e.Old, Size: int(r.st.Get(e.Old).Size)}}
				for oid := range r.scopes[e.Old] {
					want = append(want, trace.DeadObject{OID: oid, Size: int(r.st.Get(oid).Size)})
				}
				slices.SortFunc(want, func(a, b trace.DeadObject) int { return cmp.Compare(a.OID, b.OID) })
				delete(r.scopes, e.Old)
			}
			if !slices.Equal(e.Dead, want) {
				return fmt.Errorf("event %d (%v): dead list %v, reference says %v", i, e, e.Dead, want)
			}
		}
	}
	return nil
}

// checkRefs recounts, for every object of c's scope, the slots of the
// composite part and of the scope that point at it.
func checkRefs(g *Generator, c *compositeState) error {
	want := map[objstore.OID]uint32{}
	for _, src := range append([]objstore.OID{c.oid}, c.scope...) {
		for _, t := range g.st.Get(src).Slots {
			if !t.IsNil() && g.meta[t].owner == c {
				want[t]++
			}
		}
	}
	for _, oid := range c.scope {
		if got := g.meta[oid].refs; got != want[oid] {
			return fmt.Errorf("composite %v: %v counts %d references, the scope holds %d", c.oid, oid, got, want[oid])
		}
	}
	return nil
}

// checkScopes asserts what replaced the sort: every live composite's scope is
// strictly ascending, the owner array describes exactly the same sets, and
// every reference count is what the scope's slots hold.
func checkScopes(t *testing.T, g *Generator, after string) {
	t.Helper()
	owned := 0
	for _, mod := range g.modules {
		for _, c := range mod.composites {
			for i, oid := range c.scope {
				if i > 0 && c.scope[i-1] >= oid {
					t.Fatalf("after %s: composite %v scope not strictly ascending at %d: %v, %v",
						after, c.oid, i, c.scope[i-1], oid)
				}
				if g.meta[oid].owner != c {
					t.Fatalf("after %s: %v is in composite %v's scope but not owned by it", after, oid, c.oid)
				}
			}
			if err := checkRefs(g, c); err != nil {
				t.Fatalf("after %s: %v", after, err)
			}
			if g.meta[c.oid].owner != c {
				t.Fatalf("after %s: composite %v does not own itself", after, c.oid)
			}
			owned += 1 + len(c.scope)
		}
	}
	for oid := range g.meta {
		if g.meta[oid].owner != nil {
			owned--
		}
	}
	if owned != 0 {
		t.Fatalf("after %s: owner array and scopes disagree by %d objects", after, owned)
	}
}

// TestOracleMatchesMapReference drives every operation that creates garbage —
// both reorganizations with document replacement on, structural replacement
// between them — at connectivity 3 and 9, and checks each dead list the
// generator emitted against the map-based reference.
func TestOracleMatchesMapReference(t *testing.T) {
	for _, conn := range []int{3, 9} {
		for seed := int64(1); seed <= 3; seed++ {
			p := SmallPrime(conn)
			p.NumCompPerModule = 60
			p.NumAssmLevels = 5
			p.DocReplaceProb = 0.5
			g, err := NewGenerator(p, seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, step := range []struct {
				name string
				run  func() error
			}{
				{"GenDB", g.GenDB},
				{"Replace", func() error { return g.ReplaceComposites(30) }},
				{"Reorg1", g.Reorg1},
				{"Replace", func() error { return g.ReplaceComposites(30) }},
				{"Traverse", g.Traverse},
				{"Reorg2", g.Reorg2},
				{"Replace", func() error { return g.ReplaceComposites(30) }},
			} {
				if err := step.run(); err != nil {
					t.Fatalf("conn=%d seed=%d %s: %v", conn, seed, step.name, err)
				}
				checkScopes(t, g, step.name)
			}
			tr := g.Trace()
			ref := &refOracle{
				st:     objstore.NewStore(),
				scopes: map[objstore.OID]map[objstore.OID]struct{}{},
				owner:  map[objstore.OID]objstore.OID{},
			}
			if err := ref.check(tr); err != nil {
				t.Fatalf("conn=%d seed=%d: %v", conn, seed, err)
			}
			// What the reference still holds is what the generator holds.
			for _, mod := range g.modules {
				for _, c := range mod.composites {
					if len(c.scope) != len(ref.scopes[c.oid]) {
						t.Fatalf("conn=%d seed=%d: composite %v has %d in scope, reference %d",
							conn, seed, c.oid, len(c.scope), len(ref.scopes[c.oid]))
					}
				}
			}
			if err := trace.Validate(tr); err != nil {
				t.Fatalf("conn=%d seed=%d: %v", conn, seed, err)
			}
			if stats := trace.ComputeStats(tr); stats.GarbageObjects == 0 {
				t.Fatalf("conn=%d seed=%d: no garbage created", conn, seed)
			}
		}
	}
}

// TestOO7CutsNeedNoWalk: every cut the four phases make is settled from the
// reference counts alone — the oracle never walks a composite.
func TestOO7CutsNeedNoWalk(t *testing.T) {
	for _, conn := range []int{3, 9} {
		g, err := NewGenerator(SmallPrime(conn), 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, run := range []func() error{g.GenDB, g.Reorg1, g.Traverse, g.Reorg2} {
			if err := run(); err != nil {
				t.Fatal(err)
			}
		}
		if g.walks != 0 {
			t.Errorf("conn=%d: %d cuts walked the composite, want 0", conn, g.walks)
		}
	}
}

// cutChecker drives overwrites inside one hand-built composite and checks
// each dead list against a full walk of the scope as it stood.
type cutChecker struct {
	t *testing.T
	g *Generator
	c *compositeState
}

// newCutChecker builds a rooted module holding one composite part with
// nslots slots and an empty scope.
func newCutChecker(t *testing.T, seed int64, nslots int) *cutChecker {
	g, err := NewGenerator(SmallPrime(3), seed)
	if err != nil {
		t.Fatal(err)
	}
	mod := g.create(objstore.ClassModule, 100, 1)
	g.addRoot(mod)
	c := &compositeState{}
	c.oid = g.create(objstore.ClassCompositePart, 100, nslots)
	g.meta[c.oid].owner = c
	g.initStore(mod, 0, c.oid)
	return &cutChecker{t: t, g: g, c: c}
}

// private creates a scope object with two slots; the next store must wire it.
func (k *cutChecker) private(size int) objstore.OID {
	return k.g.createPrivate(k.c, objstore.ClassAtomicPart, size, 2)
}

// store overwrites src[slot] with dst, scoped to the composite, and returns
// the dead list after comparing it with the reference walk's.
func (k *cutChecker) store(src objstore.OID, slot int, dst objstore.OID) []trace.DeadObject {
	k.t.Helper()
	scope := map[objstore.OID]struct{}{}
	for _, oid := range k.c.scope {
		scope[oid] = struct{}{}
	}
	k.g.tr = trace.Builder{}
	k.g.overwrite(src, slot, dst, k.c)
	if err := k.g.err; err != nil {
		k.t.Fatal(err)
	}
	events := k.g.Trace().Events
	got := events[len(events)-1].Dead
	if want := refScopeDead(k.g.st, k.c.oid, scope); !slices.Equal(got, want) {
		k.t.Fatalf("%v[%d] = %v: dead list %v, a full walk says %v", src, slot, dst, got, want)
	}
	if err := checkRefs(k.g, k.c); err != nil {
		k.t.Fatal(err)
	}
	return got
}

// TestScopeDeadMatchesWalk: on composites whose private objects point at
// each other at random — cycles included — every cut and rewire yields the
// dead list a full walk of the scope yields. A cut that lets a cycle go is
// one the reference counts cannot settle: it must take the walk.
func TestScopeDeadMatchesWalk(t *testing.T) {
	// Composite → a ⇄ b: cutting the composite's slot leaves each with a
	// reference from the other.
	k := newCutChecker(t, 1, 2)
	a := k.private(10)
	k.store(k.c.oid, 0, a)
	b := k.private(20)
	k.store(a, 0, b)
	k.store(b, 0, a)
	if dead := k.store(k.c.oid, 0, objstore.NilOID); len(dead) != 2 || k.g.walks != 1 {
		t.Fatalf("cutting a two-object cycle loose: dead %v after %d walks, want both after 1", dead, k.g.walks)
	}

	walkedDead := 0
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := newCutChecker(t, seed, 3)
		for step := 0; step < 400; step++ {
			srcs := append([]objstore.OID{k.c.oid}, k.c.scope...)
			src := srcs[rng.Intn(len(srcs))]
			slot := rng.Intn(len(k.g.st.Get(src).Slots))
			var dst objstore.OID
			switch r := rng.Intn(10); {
			case r < 4 || len(k.c.scope) == 0:
				dst = k.private(1 + rng.Intn(100))
			case r < 9:
				dst = k.c.scope[rng.Intn(len(k.c.scope))]
			}
			walks := k.g.walks
			if dead := k.store(src, slot, dst); k.g.walks > walks && len(dead) > 0 {
				walkedDead++
			}
		}
	}
	if walkedDead == 0 {
		t.Fatal("no random cut that killed anything took the walk")
	}
	t.Logf("%d random cuts settled by the walk killed something", walkedDead)
}
