package oo7

import (
	"fmt"
	"math/rand"
	"slices"

	"odbgc/internal/objstore"
	"odbgc/internal/trace"
)

// Slot layout per class:
//
//	module:     [0] manual head, [1] root assembly
//	manual seg: [0] next segment (nil for last)
//	complex assembly: [0..NumAssmPerAssm)  child assemblies
//	base assembly:    [0..NumCompPerAssm)  composite parts
//	composite:  [0] document, [1..NumAtomicPerComp] atomic parts
//	atomic:     [0..NumConnPerAtomic) owned connections
//	connection: [0] target atomic part
//	document:   no slots

// Phase labels emitted in the trace, in application order (Figure 2).
const (
	PhaseGenDB    = "GenDB"
	PhaseReorg1   = "Reorg1"
	PhaseTraverse = "Traverse"
	PhaseReorg2   = "Reorg2"
)

// Phases lists the four phases in order.
var Phases = []string{PhaseGenDB, PhaseReorg1, PhaseTraverse, PhaseReorg2}

// Generator synthesizes the OO7 application trace. It maintains an exact
// mirror of the object graph so every overwrite event carries the precise
// set of objects it disconnected.
//
// The generator emits events in strict top-down construction order: every
// new object is wired to an already-reachable parent by the event(s)
// immediately following its creation, so the only moments the graph is
// inconsistent are directly after a create or initializing store. The
// simulator treats those moments as collection-unsafe.
type Generator struct {
	p   Params
	rng *rand.Rand
	tr  trace.Builder
	st  *objstore.Store

	modules []*moduleState
	built   map[string]bool // phases already generated

	// err records the first internal-consistency failure (a store refusing
	// an operation the generator believed legal, bookkeeping out of sync).
	// Once set, the emission helpers become no-ops and the phase method in
	// progress returns the error; the trace generated so far must be
	// discarded.
	err error

	// meta is the oracle's per-object state, indexed by OID (dense from 1,
	// never reused). epoch stamps one use of the mark or victim field —
	// "set" means "equal to the epoch taken for this pass" — so neither is
	// ever cleared; 2^32 passes would need a 400 GB trace.
	meta  []objMeta
	epoch uint32

	// Scratch reused across calls: the walks' DFS stack, the objects a cut
	// retired, and the part-index and rewire lists the deletions of one reorg
	// batch are carved from.
	stack     []objstore.OID
	gone      []objstore.OID
	idxArena  []int
	connArena []connSlot
	walks     int // cuts the reference counts could not settle
}

// objMeta is what the oracle knows about one object beyond the mirror store.
type objMeta struct {
	// owner is the composite whose private scope holds the object (for a
	// composite part itself: its own state); nil for shared structure and
	// for objects already declared dead.
	owner *compositeState
	// refs counts the slots of the owner's scope, the composite part's
	// included, that point at the object.
	refs uint32
	// mark is the scope walk's and the traversals' visited stamp.
	mark uint32
	// victim stamps the atomic parts deleteHalf is deleting. It is apart
	// from mark because deleteHalf's overwrites run scopeDead while the
	// victim set is live.
	victim uint32
}

type moduleState struct {
	oid        objstore.OID
	composites []*compositeState
}

// slotRef identifies one pointer slot of one object.
type slotRef struct {
	obj  objstore.OID
	slot int
}

type compositeState struct {
	oid   objstore.OID
	doc   objstore.OID
	parts []objstore.OID // index i ↔ composite slot i+1; nil = vacant
	// refs lists the base-assembly slots referencing the composite, so
	// structural operations (ReplaceComposites) can sever them and detect
	// when the composite becomes unreachable.
	refs []slotRef
	// scope holds the composite's private objects (document, atomic parts,
	// connections) that have not yet been declared garbage, in creation —
	// hence ascending-OID — order; meta[oid].owner is the same set seen from
	// the object. Reachability within the composite is decidable locally
	// because private objects are only ever referenced from within the
	// composite.
	scope []objstore.OID
}

// NewGenerator returns a generator for the given parameters and seed.
func NewGenerator(p Params, seed int64) (*Generator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Generator{
		p:     p,
		rng:   rand.New(rand.NewSource(seed)),
		st:    objstore.NewStore(),
		built: make(map[string]bool),
	}, nil
}

// Trace returns the trace generated so far: a snapshot with an exactly sized
// Events slice, built by one copy per call. Operations run afterwards do not
// appear in it — call Trace again once they are done, not once per event.
func (g *Generator) Trace() *trace.Trace { return g.tr.Trace() }

// Store exposes the generator's mirror object graph (for tests and stats).
func (g *Generator) Store() *objstore.Store { return g.st }

// Params returns the generator's parameters.
func (g *Generator) Params() Params { return g.p }

// setErr records the first failure; later calls keep the original.
func (g *Generator) setErr(err error) {
	if g.err == nil && err != nil {
		g.err = err
	}
}

// obj returns the generator's mirror object for oid. A missing object is a
// generator bug: the error is recorded and an empty object returned so the
// caller proceeds harmlessly until the phase method surfaces the error. The
// mirror never removes an object, so the pointer stays valid (Store.Get).
func (g *Generator) obj(oid objstore.OID) *objstore.Object {
	if o := g.st.Get(oid); o != nil {
		return o
	}
	g.setErr(fmt.Errorf("oo7: no object %v in generator mirror", oid))
	return &emptyObject
}

// emptyObject is the shared harmless stand-in obj returns after recording a
// missing-object error; callers only read it.
var emptyObject objstore.Object

// slot returns slot i of oid's mirror object, recording an error and
// returning NilOID when the object or slot is missing. Traversal loops stop
// naturally on NilOID, so a recorded error unwinds without further damage.
func (g *Generator) slot(oid objstore.OID, i int) objstore.OID {
	o := g.obj(oid)
	if i < 0 || i >= len(o.Slots) {
		g.setErr(fmt.Errorf("oo7: object %v has no slot %d", oid, i))
		return objstore.NilOID
	}
	return o.Slots[i]
}

// FullTrace runs all four phases and returns the trace.
func FullTrace(p Params, seed int64) (*trace.Trace, error) {
	g, err := NewGenerator(p, seed)
	if err != nil {
		return nil, err
	}
	if err := g.GenDB(); err != nil {
		return nil, err
	}
	if err := g.Reorg1(); err != nil {
		return nil, err
	}
	if err := g.Traverse(); err != nil {
		return nil, err
	}
	if err := g.Reorg2(); err != nil {
		return nil, err
	}
	return g.Trace(), nil
}

// --- event emission helpers -------------------------------------------------

func (g *Generator) emitPhase(label string) {
	// Quiescence precedes every phase after the first, modeling the idle
	// window between workload phases.
	if g.p.IdleBetweenPhases > 0 && label != PhaseGenDB {
		g.tr.Append(trace.Event{Kind: trace.KindIdle, Size: g.p.IdleBetweenPhases})
	}
	g.tr.Append(trace.Event{Kind: trace.KindPhase, Label: trace.MakeLabel(label)})
}

func (g *Generator) create(class objstore.Class, size, nslots int) objstore.OID {
	if g.err != nil {
		return objstore.NilOID
	}
	o, err := g.st.Create(class, size, nslots)
	if err != nil {
		// Generator bug: sizes and slot counts are generator-computed.
		g.setErr(err)
		return objstore.NilOID
	}
	if int(o.OID) >= len(g.meta) { // doubling: append's 1.25× recopies too often
		g.meta = append(g.meta, make([]objMeta, int(o.OID)+1)...)
	}
	g.tr.Append(trace.Event{
		Kind: trace.KindCreate, OID: o.OID, Class: class, Size: size, Slots: nslots,
	})
	return o.OID
}

// createPrivate creates an object in composite c's private scope. Creation
// order is OID order, so appending keeps c.scope ascending.
func (g *Generator) createPrivate(c *compositeState, class objstore.Class, size, nslots int) objstore.OID {
	oid := g.create(class, size, nslots)
	if !oid.IsNil() {
		g.meta[oid].owner = c
		c.scope = append(c.scope, oid)
	}
	return oid
}

func (g *Generator) access(oid objstore.OID) {
	if g.err != nil {
		return
	}
	g.tr.Append(trace.Event{Kind: trace.KindAccess, OID: oid})
}

func (g *Generator) update(oid objstore.OID) {
	if g.err != nil {
		return
	}
	g.tr.Append(trace.Event{Kind: trace.KindUpdate, OID: oid})
}

func (g *Generator) addRoot(oid objstore.OID) {
	if g.err != nil {
		return
	}
	if err := g.st.AddRoot(oid); err != nil {
		// Generator bug: rooting an object it did not create.
		g.setErr(err)
		return
	}
	g.tr.Append(trace.Event{Kind: trace.KindRoot, OID: oid, Size: 1})
}

// setSlot stores dst in src[slot], moving the reference the slot held inside
// src's scope, and returns the old target; false once the generator failed.
func (g *Generator) setSlot(src objstore.OID, slot int, dst objstore.OID) (objstore.OID, bool) {
	if g.err != nil {
		return objstore.NilOID, false
	}
	old, err := g.st.SetSlot(src, slot, dst)
	if err != nil {
		g.setErr(err)
		return old, false
	}
	if c := g.meta[src].owner; c != nil {
		if m := &g.meta[old]; !old.IsNil() && m.owner == c {
			m.refs--
		}
		if m := &g.meta[dst]; !dst.IsNil() && m.owner == c {
			m.refs++
		}
	}
	return old, true
}

// initStore wires a slot during construction of new structure. The old
// value must be nil and no garbage can result.
func (g *Generator) initStore(src objstore.OID, slot int, dst objstore.OID) {
	if old, ok := g.setSlot(src, slot, dst); !ok {
		return
	} else if !old.IsNil() {
		g.setErr(fmt.Errorf("oo7: init store over non-nil slot %v[%d]", src, slot))
		return
	}
	g.tr.Append(trace.Event{
		Kind: trace.KindOverwrite, OID: src, Slot: slot, Old: objstore.NilOID, New: dst, Init: true,
	})
}

// overwrite performs a real pointer overwrite. If scope is non-nil the
// overwrite may disconnect objects private to that composite; the newly
// unreachable ones are computed exactly and attached as the oracle
// annotation.
func (g *Generator) overwrite(src objstore.OID, slot int, dst objstore.OID, scope *compositeState) {
	old, ok := g.setSlot(src, slot, dst)
	if !ok {
		return
	}
	e := trace.Event{Kind: trace.KindOverwrite, OID: src, Slot: slot, Old: old, New: dst}
	if scope != nil {
		e.Dead = g.scopeDead(scope, old)
	}
	g.tr.Append(e)
}

// scopeDead returns (and retires) the objects of c's scope that the cut of a
// pointer to old made unreachable, in OID order. Only what old reaches can
// die: nothing if old is outside the scope or held by the composite part.
// Objects left without references die in a cascade from old; one it leaves
// referenced but not held may be in a dead cycle, and a walk settles that.
func (g *Generator) scopeDead(c *compositeState, old objstore.OID) []trace.DeadObject {
	held := g.obj(c.oid).Slots // the composite part's: live while it is
	if old.IsNil() || g.meta[old].owner != c || old == c.oid || slices.Contains(held, old) {
		return nil
	}
	gone, settled := g.gone[:0], g.meta[old].refs == 0
	if settled {
		g.meta[old].owner = nil
		gone = append(gone, old)
	}
	for i := 0; i < len(gone); i++ { // gone is the cascade's work list too
		for _, t := range g.obj(gone[i]).Slots {
			if m := &g.meta[t]; t.IsNil() || m.owner != c || t == c.oid {
				continue
			} else if m.refs--; m.refs == 0 {
				m.owner = nil
				gone = append(gone, t)
			} else if settled && !slices.Contains(held, t) {
				settled = false
			}
		}
	}
	if !settled {
		g.walks++
		gone = g.walkScope(c, gone)
	}
	if g.gone = gone; len(gone) == 0 {
		return nil
	}
	slices.Sort(gone)
	list := g.tr.Dead(len(gone))
	for i, oid := range gone {
		list[i] = trace.DeadObject{OID: oid, Size: int(g.obj(oid).Size)}
	}
	// The scope is ascending too: close it up over the dead from the first.
	from, _ := slices.BinarySearch(c.scope, gone[0])
	kept, next := c.scope[:from], 0
	for _, oid := range c.scope[from:] {
		if next < len(gone) && oid == gone[next] {
			next++
		} else {
			kept = append(kept, oid)
		}
	}
	c.scope = kept
	return list
}

// walkScope retires, appending it to gone, every scope object a marked walk
// from the composite part does not reach; its live targets lose its references.
func (g *Generator) walkScope(c *compositeState, gone []objstore.OID) []objstore.OID {
	g.epoch++
	stack := append(g.stack[:0], c.oid)
	for len(stack) > 0 {
		oid := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, t := range g.obj(oid).Slots {
			if m := &g.meta[t]; !t.IsNil() && m.owner == c && m.mark != g.epoch {
				m.mark = g.epoch
				stack = append(stack, t)
			}
		}
	}
	g.stack = stack
	for _, oid := range c.scope {
		if m := &g.meta[oid]; m.owner == c && m.mark != g.epoch {
			m.owner = nil
			gone = append(gone, oid)
			for _, t := range g.obj(oid).Slots {
				if m := &g.meta[t]; !t.IsNil() && m.owner == c && m.mark == g.epoch {
					m.refs--
				}
			}
		}
	}
	return gone
}

// --- GenDB -------------------------------------------------------------------

// GenDB generates the initial database: modules, manuals, assembly
// hierarchies, and composite parts with their atomic parts, connections and
// documents. Construction is strictly top-down from the rooted module.
func (g *Generator) GenDB() error {
	if g.built[PhaseGenDB] {
		return fmt.Errorf("oo7: GenDB already generated")
	}
	g.built[PhaseGenDB] = true
	g.emitPhase(PhaseGenDB)

	for m := 0; m < g.p.NumModules; m++ {
		g.modules = append(g.modules, g.genModule())
	}
	return g.err
}

func (g *Generator) genModule() *moduleState {
	mod := &moduleState{}
	mod.oid = g.create(objstore.ClassModule, g.p.ModuleBytes, 2)
	g.addRoot(mod.oid)

	g.genManual(mod.oid)

	// Assign composite parts to base assembly slots before building: the
	// first NumCompPerModule slots cover every composite index once (so no
	// composite is born garbage), the rest are uniform random.
	nBase := g.p.NumBaseAssemblies()
	slots := nBase * g.p.NumCompPerAssm // >= NumCompPerModule, per Params.Validate
	assign := make([]int, slots)
	for i := range assign {
		if i < g.p.NumCompPerModule {
			assign[i] = i
		} else {
			assign[i] = g.rng.Intn(g.p.NumCompPerModule)
		}
	}
	g.rng.Shuffle(len(assign), func(i, j int) { assign[i], assign[j] = assign[j], assign[i] })

	mod.composites = make([]*compositeState, g.p.NumCompPerModule)

	// Build the assembly tree top-down, breadth-first. Complex assemblies
	// occupy levels 1..NumAssmLevels-1; the last level is base assemblies.
	root := g.create(objstore.ClassAssembly, g.p.AssemblyBytes, g.assemblySlots(1))
	g.overwrite(mod.oid, 1, root, nil)
	frontier := []objstore.OID{root}
	nextSlot := 0
	for level := 2; level <= g.p.NumAssmLevels; level++ {
		next := make([]objstore.OID, 0, len(frontier)*g.p.NumAssmPerAssm)
		for _, parent := range frontier {
			for k := 0; k < g.p.NumAssmPerAssm; k++ {
				child := g.create(objstore.ClassAssembly, g.p.AssemblyBytes, g.assemblySlots(level))
				g.overwrite(parent, k, child, nil)
				next = append(next, child)
			}
		}
		frontier = next
	}
	if g.p.NumAssmLevels == 1 {
		// Degenerate single-level hierarchy: the root is the sole base.
		frontier = []objstore.OID{root}
	}
	// frontier now holds the base assemblies; wire composites, building
	// each composite at its first reference.
	for _, base := range frontier {
		for k := 0; k < g.p.NumCompPerAssm; k++ {
			idx := assign[nextSlot]
			nextSlot++
			if mod.composites[idx] == nil {
				mod.composites[idx] = g.genComposite(base, k)
			} else {
				g.overwrite(base, k, mod.composites[idx].oid, nil)
			}
			c := mod.composites[idx]
			c.refs = append(c.refs, slotRef{obj: base, slot: k})
		}
	}
	return mod
}

// assemblySlots returns the slot count of an assembly at the given level
// (1-based; the deepest level holds base assemblies).
func (g *Generator) assemblySlots(level int) int {
	if level == g.p.NumAssmLevels {
		return g.p.NumCompPerAssm
	}
	return g.p.NumAssmPerAssm
}

func (g *Generator) genManual(module objstore.OID) {
	segs := g.p.ManualSegments()
	remaining := g.p.ManualBytes
	var prev objstore.OID
	for i := 0; i < segs; i++ {
		size := min(g.p.ManualSegBytes, remaining)
		remaining -= size
		seg := g.create(objstore.ClassManual, size, 1)
		if i == 0 {
			g.overwrite(module, 0, seg, nil)
		} else {
			g.overwrite(prev, 0, seg, nil)
		}
		prev = seg
	}
}

// genComposite builds one composite part top-down, immediately wired into
// base assembly slot k. All internal wiring is initializing stores.
func (g *Generator) genComposite(base objstore.OID, k int) *compositeState {
	// One array holds the part slots and, behind them, room for the scope of
	// a freshly built composite: document, parts, connections.
	n := g.p.NumAtomicPerComp
	oids := make([]objstore.OID, n, n+g.p.DocSegments()+n*(1+g.p.NumConnPerAtomic))
	c := &compositeState{parts: oids[:n:n], scope: oids[n:n]}
	c.oid = g.create(objstore.ClassCompositePart, g.p.CompositeBytes, 1+g.p.NumAtomicPerComp)
	if !c.oid.IsNil() {
		g.meta[c.oid].owner = c
	}
	g.overwrite(base, k, c.oid, nil)

	c.doc = g.createDocument(c, func(head objstore.OID) {
		g.initStore(c.oid, 0, head)
	})

	for i := 0; i < g.p.NumAtomicPerComp; i++ {
		part := g.createPrivate(c, objstore.ClassAtomicPart, g.p.AtomicBytes, g.p.NumConnPerAtomic)
		g.initStore(c.oid, 1+i, part)
		c.parts[i] = part
	}
	for i := 0; i < g.p.NumAtomicPerComp; i++ {
		for k := 0; k < g.p.NumConnPerAtomic; k++ {
			target := g.randPartExcept(c, c.parts[i])
			conn := g.createPrivate(c, objstore.ClassConnection, g.p.ConnBytes, 1)
			g.initStore(conn, 0, target)
			g.initStore(c.parts[i], k, conn)
		}
	}
	return c
}

// createDocument creates a composite's document as a chain of page-sized
// segments (larger OO7 configurations have documents exceeding a page), all
// registered in the composite's scope. wireHead attaches the head segment
// to its reachable parent immediately after creation; subsequent segments
// chain off the previous one. Returns the head segment.
func (g *Generator) createDocument(c *compositeState, wireHead func(objstore.OID)) objstore.OID {
	segBytes := g.p.ManualSegBytes
	remaining := g.p.DocumentBytes
	var head, prev objstore.OID
	for remaining > 0 {
		size := min(segBytes, remaining)
		remaining -= size
		seg := g.createPrivate(c, objstore.ClassDocument, size, 1)
		if head.IsNil() {
			head = seg
			wireHead(head)
		} else {
			g.initStore(prev, 0, seg)
		}
		prev = seg
	}
	return head
}

// randPartExcept returns a random live part OID other than self. Params
// guarantees two parts, so rejection sampling converges; the scan after it
// records an error only if every other slot is vacant, a generator bug.
func (g *Generator) randPartExcept(c *compositeState, self objstore.OID) objstore.OID {
	for tries := 0; tries < 1000; tries++ {
		i := g.rng.Intn(len(c.parts))
		if !c.parts[i].IsNil() && c.parts[i] != self {
			return c.parts[i]
		}
	}
	for i := range c.parts {
		if !c.parts[i].IsNil() && c.parts[i] != self {
			return c.parts[i]
		}
	}
	g.setErr(fmt.Errorf("oo7: no connectable atomic part found"))
	return objstore.NilOID
}
