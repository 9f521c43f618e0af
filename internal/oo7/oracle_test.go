package oo7

import (
	"cmp"
	"fmt"
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
		dead = append(dead, trace.DeadObject{OID: oid, Size: st.Get(oid).Size})
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
				want = []trace.DeadObject{{OID: e.Old, Size: r.st.Get(e.Old).Size}}
				for oid := range r.scopes[e.Old] {
					want = append(want, trace.DeadObject{OID: oid, Size: r.st.Get(oid).Size})
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

// checkScopes asserts what replaced the sort: every live composite's scope is
// strictly ascending, and the owner array describes exactly the same sets.
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
