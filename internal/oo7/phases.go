package oo7

import (
	"fmt"

	"odbgc/internal/objstore"
)

// deletion records what a delete-half pass vacated in one composite, so the
// reinsertion pass can refill exactly those slots.
type deletion struct {
	comp      *compositeState
	partSlots []int // vacated part indices (composite slot = index+1)
	rewires   []connSlot
}

// connSlot identifies a vacated connection slot of a surviving atomic part.
type connSlot struct {
	part objstore.OID
	slot int
}

// Reorg1 deletes half the atomic parts of every composite and reinserts
// them composite by composite, so each composite's replacement parts are
// allocated together (clustering preserved).
func (g *Generator) Reorg1() error {
	return g.reorg(PhaseReorg1, true)
}

// Reorg2 deletes half the atomic parts of every composite, then reinserts
// them round-robin across composites, breaking the co-location of a
// composite's parts (the paper's declustering reorganization).
func (g *Generator) Reorg2() error {
	return g.reorg(PhaseReorg2, false)
}

func (g *Generator) reorg(label string, clustered bool) error {
	if !g.built[PhaseGenDB] {
		return fmt.Errorf("oo7: %s requires GenDB first", label)
	}
	if g.built[label] {
		return fmt.Errorf("oo7: %s already generated", label)
	}
	g.built[label] = true
	g.emitPhase(label)

	if clustered {
		for _, mod := range g.modules {
			for _, c := range mod.composites {
				g.idxArena, g.connArena = g.idxArena[:0], g.connArena[:0]
				d := g.deleteHalf(c)
				for _, slot := range d.partSlots {
					g.insertPart(c, slot)
				}
				g.rewire(d)
			}
		}
		return g.err
	}

	// Declustered: process composites in batches — delete across the whole
	// batch, then interleave reinsertions round-robin so consecutive
	// allocations belong to different composites and a composite's
	// replacement parts scatter over partitions.
	all := make([]*compositeState, 0, len(g.modules)*g.p.NumCompPerModule)
	for _, mod := range g.modules {
		all = append(all, mod.composites...)
	}
	batch := g.p.declusterBatch()
	var dels []deletion // reused across batches
	for start := 0; start < len(all); start += batch {
		end := start + batch
		if end > len(all) {
			end = len(all)
		}
		g.idxArena, g.connArena = g.idxArena[:0], g.connArena[:0]
		dels = dels[:0]
		maxSlots := 0
		for _, c := range all[start:end] {
			d := g.deleteHalf(c)
			dels = append(dels, d)
			if len(d.partSlots) > maxSlots {
				maxSlots = len(d.partSlots)
			}
		}
		for round := 0; round < maxSlots; round++ {
			for _, d := range dels {
				if round < len(d.partSlots) {
					g.insertPart(d.comp, d.partSlots[round])
				}
			}
		}
		for _, d := range dels {
			g.rewire(d)
		}
	}
	return g.err
}

// deleteHalf removes half of a composite's current atomic parts: the
// composite's slots to the victims are overwritten to nil, and surviving
// parts' connections that target victims are severed. Victims, their owned
// connections, and the severed connections become garbage — often as
// clusters released by a single final overwrite, reproducing the paper's
// observation that individual overwrites can detach large structures.
func (g *Generator) deleteHalf(c *compositeState) deletion {
	d := deletion{comp: c}

	// Optionally replace the document: one overwrite disconnecting one
	// large object (or segment chain, in larger configurations).
	if g.p.DocReplaceProb > 0 && g.rng.Float64() < g.p.DocReplaceProb {
		c.doc = g.createDocument(c, func(head objstore.OID) {
			g.overwrite(c.oid, 0, head, c)
		})
	}

	// The deletion's lists are carved from the generator's arenas, which
	// reorg resets once the batch's deletions have been reinserted. A list
	// that outgrows its arena moves to a new array; earlier deletions keep
	// the old one, and nothing appends to them again.
	from := len(g.idxArena)
	for i, p := range c.parts {
		if !p.IsNil() {
			g.idxArena = append(g.idxArena, i)
		}
	}
	current := g.idxArena[from:]
	k := len(current) / 2
	g.idxArena = g.idxArena[:from+k]
	if k == 0 {
		return d
	}
	g.rng.Shuffle(len(current), func(i, j int) { current[i], current[j] = current[j], current[i] })
	d.partSlots = current[:k:k]
	g.epoch++
	victim := g.epoch
	for _, idx := range d.partSlots {
		g.meta[c.parts[idx]].victim = victim
	}
	rewiresFrom := len(g.connArena)

	// Deletion order matters: all stores into a victim must happen while it
	// is still reachable (the application's delete traversal holds it),
	// and the composite-slot overwrite comes last, releasing each victim
	// cluster in one final severing store.
	//
	// First, sever victims' connections to other victims. The application's
	// delete of a part disconnects it fully; without this, declustered
	// victims form dead cycles spanning partitions, which a partitioned
	// collector can never reclaim (pointers leaving the collected partition
	// are not traversed, and each side of the cycle keeps the other's
	// remembered-set entry alive). Victims' connections to surviving parts
	// are left in place — they die with their owner and point only at live
	// objects, so they pin nothing.
	for _, idx := range d.partSlots {
		part := c.parts[idx]
		for s, conn := range g.obj(part).Slots {
			if conn.IsNil() {
				continue
			}
			if g.meta[g.slot(conn, 0)].victim == victim {
				g.overwrite(part, s, objstore.NilOID, c)
			}
		}
	}
	// Second, sever survivors' connections into the victim set; those
	// slots are refilled by the reinsertion pass.
	for _, p := range c.parts {
		if p.IsNil() || g.meta[p].victim == victim {
			continue
		}
		for s, conn := range g.obj(p).Slots {
			if conn.IsNil() {
				continue
			}
			if g.meta[g.slot(conn, 0)].victim == victim {
				g.overwrite(p, s, objstore.NilOID, c)
				g.connArena = append(g.connArena, connSlot{part: p, slot: s})
			}
		}
	}
	d.rewires = g.connArena[rewiresFrom:]
	// Finally, detach victims from the composite. Each overwrite may
	// release a whole cluster (the part plus its remaining connections).
	for _, idx := range d.partSlots {
		g.overwrite(c.oid, 1+idx, objstore.NilOID, c)
		c.parts[idx] = objstore.NilOID
	}
	return d
}

// insertPart creates a replacement atomic part in the given composite slot,
// with a full set of outgoing connections to random current parts.
func (g *Generator) insertPart(c *compositeState, slot int) {
	part := g.createPrivate(c, objstore.ClassAtomicPart, g.p.AtomicBytes, g.p.NumConnPerAtomic)
	g.overwrite(c.oid, 1+slot, part, nil)
	c.parts[slot] = part
	for k := 0; k < g.p.NumConnPerAtomic; k++ {
		target := g.randCurrentPartExcept(c, part)
		conn := g.createPrivate(c, objstore.ClassConnection, g.p.ConnBytes, 1)
		g.initStore(conn, 0, target)
		g.initStore(part, k, conn)
	}
}

// rewire restores the out-degree of surviving parts whose connections were
// severed, pointing new connections at random current parts.
func (g *Generator) rewire(d deletion) {
	c := d.comp
	for _, r := range d.rewires {
		target := g.randCurrentPartExcept(c, r.part)
		conn := g.createPrivate(c, objstore.ClassConnection, g.p.ConnBytes, 1)
		g.initStore(conn, 0, target)
		g.overwrite(r.part, r.slot, conn, nil)
	}
}

// Traverse emits the read-only depth-first traversal over all atomic parts:
// down the assembly hierarchy, then within each composite following
// connections from its first part, finally touching any parts unreachable
// via connections. No pointers are modified, so the SAGA clock does not
// advance during this phase — no garbage can be created (§4.1.2).
func (g *Generator) Traverse() error {
	if !g.built[PhaseGenDB] {
		return fmt.Errorf("oo7: Traverse requires GenDB first")
	}
	if g.built[PhaseTraverse] {
		return fmt.Errorf("oo7: Traverse already generated")
	}
	g.built[PhaseTraverse] = true
	g.emitPhase(PhaseTraverse)

	// One epoch serves the whole phase: composite parts and atomic parts are
	// distinct objects, and nothing here runs scopeDead.
	g.epoch++
	sinceUpdate := 0
	for _, mod := range g.modules {
		g.walkAssemblies(mod, func(c *compositeState) {
			g.traverseComposite(c, &sinceUpdate)
		})
	}
	return g.err
}

// walkAssemblies emits the depth-first walk down a module's assembly
// hierarchy shared by Traverse and T6, calling visit at each composite part
// the first time the walk reaches it. The caller has taken a fresh epoch.
func (g *Generator) walkAssemblies(mod *moduleState, visit func(*compositeState)) {
	g.access(mod.oid)
	stack := append(g.stack[:0], g.slot(mod.oid, 1))
	for len(stack) > 0 {
		oid := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		g.access(oid)
		slots := g.obj(oid).Slots
		for i := len(slots) - 1; i >= 0; i-- {
			child := slots[i]
			if child.IsNil() {
				continue
			}
			// Below an assembly is an assembly or a composite part, and only
			// a composite part has an owner: itself.
			m := &g.meta[child]
			if m.owner == nil {
				stack = append(stack, child)
			} else if m.mark != g.epoch {
				m.mark = g.epoch
				visit(m.owner)
			}
		}
	}
	g.stack = stack
}

func (g *Generator) traverseComposite(c *compositeState, sinceUpdate *int) {
	g.access(c.oid)
	var dfs func(p objstore.OID)
	dfs = func(p objstore.OID) {
		g.meta[p].mark = g.epoch
		g.access(p)
		if g.p.TraverseUpdateEvery > 0 {
			*sinceUpdate++
			if *sinceUpdate >= g.p.TraverseUpdateEvery {
				*sinceUpdate = 0
				g.update(p)
			}
		}
		for _, conn := range g.obj(p).Slots {
			if conn.IsNil() {
				continue
			}
			g.access(conn)
			if t := g.slot(conn, 0); !t.IsNil() && g.meta[t].mark != g.epoch {
				dfs(t)
			}
		}
	}
	for _, p := range c.parts {
		if !p.IsNil() && g.meta[p].mark != g.epoch {
			dfs(p)
		}
	}
}
