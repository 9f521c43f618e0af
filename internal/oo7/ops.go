package oo7

// This file implements the broader OO7 operation suite (Carey, DeWitt,
// Naughton, SIGMOD'93) beyond the four-phase application the paper
// evaluates: update traversals (T2a/b/c), the sparse traversal T6,
// query-class operations (Q1 lookups, Q4 document lookups, Q7 scan), the
// manual scan (T8), and structural composite replacement. They let users
// compose custom workloads from standard OO7 building blocks; each may be
// invoked repeatedly after GenDB, in any order.

import (
	"fmt"
	"slices"

	"odbgc/internal/objstore"
	"odbgc/internal/trace"
)

// T2Variant selects the update pattern of a T2 traversal.
type T2Variant byte

// T2 variants, per the OO7 specification.
const (
	// T2A updates one atomic part per composite part.
	T2A T2Variant = 'a'
	// T2B updates every atomic part.
	T2B T2Variant = 'b'
	// T2C updates every atomic part four times.
	T2C T2Variant = 'c'
)

// requireBuilt guards operations that need the database.
func (g *Generator) requireBuilt(op string) error {
	if g.err != nil {
		return g.err
	}
	if !g.built[PhaseGenDB] {
		return fmt.Errorf("oo7: %s requires GenDB first", op)
	}
	return nil
}

// liveComposites returns every composite currently tracked, in slice order.
func (g *Generator) liveComposites() []*compositeState {
	var out []*compositeState
	for _, mod := range g.modules {
		out = append(out, mod.composites...)
	}
	return out
}

// T2 performs the OO7 update traversal: the full T1 walk with non-pointer
// updates to atomic parts per the chosen variant. Updates dirty pages and
// count as application I/O but create no garbage.
func (g *Generator) T2(variant T2Variant) error {
	if err := g.requireBuilt("T2"); err != nil {
		return err
	}
	switch variant {
	case T2A, T2B, T2C:
	default:
		return fmt.Errorf("oo7: unknown T2 variant %q (have a, b, c)", variant)
	}
	g.emitPhase("T2" + string(variant))
	for _, c := range g.liveComposites() {
		g.access(c.oid)
		first := true
		for _, part := range c.parts {
			if part.IsNil() {
				continue
			}
			g.access(part)
			switch {
			case variant == T2A && first:
				g.update(part)
			case variant == T2B:
				g.update(part)
			case variant == T2C:
				for i := 0; i < 4; i++ {
					g.update(part)
				}
			}
			first = false
		}
	}
	return g.err
}

// T6 performs the sparse traversal: the assembly hierarchy down to each
// composite part and its first atomic part only.
func (g *Generator) T6() error {
	if err := g.requireBuilt("T6"); err != nil {
		return err
	}
	g.emitPhase("T6")
	g.epoch++
	for _, mod := range g.modules {
		g.walkAssemblies(mod, func(c *compositeState) {
			g.access(c.oid)
			for _, part := range c.parts {
				if !part.IsNil() {
					g.access(part) // root part only
					break
				}
			}
		})
	}
	return g.err
}

// Q1 performs n exact-match lookups of random atomic parts.
func (g *Generator) Q1(n int) error {
	if err := g.requireBuilt("Q1"); err != nil {
		return err
	}
	if n < 0 {
		return fmt.Errorf("oo7: Q1 count %d must be >= 0", n)
	}
	g.emitPhase("Q1")
	comps := g.liveComposites()
	for i := 0; i < n; i++ {
		c := comps[g.rng.Intn(len(comps))]
		g.access(g.randPartExcept(c, objstore.NilOID))
	}
	return g.err
}

// Q4 performs n random document lookups, each touching the document and
// its composite part.
func (g *Generator) Q4(n int) error {
	if err := g.requireBuilt("Q4"); err != nil {
		return err
	}
	if n < 0 {
		return fmt.Errorf("oo7: Q4 count %d must be >= 0", n)
	}
	g.emitPhase("Q4")
	comps := g.liveComposites()
	for i := 0; i < n; i++ {
		c := comps[g.rng.Intn(len(comps))]
		g.access(c.doc)
		g.access(c.oid)
	}
	return g.err
}

// Q7 scans every atomic part in the database.
func (g *Generator) Q7() error {
	if err := g.requireBuilt("Q7"); err != nil {
		return err
	}
	g.emitPhase("Q7")
	for _, c := range g.liveComposites() {
		for _, part := range c.parts {
			if !part.IsNil() {
				g.access(part)
			}
		}
	}
	return g.err
}

// ScanManual reads the module manuals segment by segment (OO7's T8).
func (g *Generator) ScanManual() error {
	if err := g.requireBuilt("ScanManual"); err != nil {
		return err
	}
	g.emitPhase("T8")
	for _, mod := range g.modules {
		seg := g.slot(mod.oid, 0)
		for !seg.IsNil() {
			g.access(seg)
			seg = g.slot(seg, 0)
		}
	}
	return g.err
}

// ReplaceComposites performs n structural replacements: a random
// base-assembly slot is repointed at a freshly built composite part. The
// displaced composite loses that reference; when its last reference goes,
// the whole subtree — composite, document, atomic parts, connections —
// becomes garbage in that single overwrite, the largest single-overwrite
// detachment OO7 can produce.
func (g *Generator) ReplaceComposites(n int) error {
	if err := g.requireBuilt("ReplaceComposites"); err != nil {
		return err
	}
	if n < 0 {
		return fmt.Errorf("oo7: ReplaceComposites count %d must be >= 0", n)
	}
	g.emitPhase("Replace")
	for i := 0; i < n; i++ {
		mod := g.modules[g.rng.Intn(len(g.modules))]
		// Pick a random referenced composite and one of its referencing
		// slots, deterministically ordered.
		comps := mod.composites
		old := comps[g.rng.Intn(len(comps))]
		if len(old.refs) == 0 {
			continue // already fully displaced earlier this phase
		}
		ref := old.refs[g.rng.Intn(len(old.refs))]

		// Sever: the last reference takes the whole subtree with it.
		g.severCompositeRef(mod, old, ref)

		// Build the replacement into the vacated slot.
		nc := g.genComposite(ref.obj, ref.slot)
		nc.refs = append(nc.refs, ref)
		mod.composites = append(mod.composites, nc)
	}
	return g.err
}

// severCompositeRef overwrites one base-assembly slot referencing c to nil,
// annotating the event with the full subtree when it was the last
// reference, and drops fully-dead composites from the module's tracking.
func (g *Generator) severCompositeRef(mod *moduleState, c *compositeState, ref slotRef) {
	c.refs = slices.DeleteFunc(c.refs, func(r slotRef) bool { return r == ref })
	old, ok := g.setSlot(ref.obj, ref.slot, objstore.NilOID)
	if !ok {
		return
	}
	if old != c.oid {
		g.setErr(fmt.Errorf("oo7: ref bookkeeping out of sync: slot holds %v, expected %v", old, c.oid))
		return
	}
	ev := trace.Event{Kind: trace.KindOverwrite, OID: ref.obj, Slot: ref.slot, Old: old, New: objstore.NilOID}
	if len(c.refs) == 0 {
		// Last reference: the composite and its whole private scope die. The
		// composite part was created before anything in its scope, so it
		// heads a list that is already in OID order.
		ev.Dead = g.tr.Dead(1 + len(c.scope))
		ev.Dead[0] = trace.DeadObject{OID: c.oid, Size: int(g.obj(c.oid).Size)}
		for i, oid := range c.scope {
			ev.Dead[1+i] = trace.DeadObject{OID: oid, Size: int(g.obj(oid).Size)}
			g.meta[oid].owner = nil
		}
		g.meta[c.oid].owner = nil
		c.scope = nil
		mod.composites = slices.DeleteFunc(mod.composites, func(cc *compositeState) bool { return cc == c })
	}
	g.tr.Append(ev)
}
