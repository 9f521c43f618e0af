package workload

import (
	"fmt"
	"math/rand"

	"odbgc/internal/objstore"
	"odbgc/internal/trace"
)

// QueueParams describe a sliding-window (FIFO log) workload: entries are
// appended at the head and trimmed from the tail. Dead entries form a
// pinning chain across partitions — each trimmed entry's forward pointer
// holds a remembered-set entry on its successor — so a partitioned
// collector can only ever reclaim the unpinned prefix segment of the dead
// chain. Greedy selection policies (max overwrites, max garbage) livelock
// re-collecting fully pinned partitions at zero yield; sweeping policies
// cope. Real log-structured systems avoid partitioned GC here entirely,
// which is exactly the kind of assumption violation §5 of the paper asks
// about.
type QueueParams struct {
	// WindowEntries is the number of live entries the queue maintains.
	WindowEntries int
	// EntryBytesMin/Max bound the (uniform) entry sizes.
	EntryBytesMin, EntryBytesMax int
	// Appends is the total number of append+trim operations after the
	// window fills.
	Appends int
	// ReadsPerAppend interleaves random reads over the live window.
	ReadsPerAppend int
}

// DefaultQueue returns a configuration comparable in volume to the other
// workloads: a 4000-entry window with 12000 append/trim cycles.
func DefaultQueue() QueueParams {
	return QueueParams{
		WindowEntries:  4000,
		EntryBytesMin:  200,
		EntryBytesMax:  600,
		Appends:        12000,
		ReadsPerAppend: 2,
	}
}

// Validate checks the parameters.
func (p QueueParams) Validate() error {
	switch {
	case p.WindowEntries < 2:
		return fmt.Errorf("workload: queue window %d must be >= 2", p.WindowEntries)
	case p.EntryBytesMin < 1 || p.EntryBytesMax < p.EntryBytesMin:
		return fmt.Errorf("workload: bad entry size range [%d,%d]", p.EntryBytesMin, p.EntryBytesMax)
	case p.Appends < 0 || p.ReadsPerAppend < 0:
		return fmt.Errorf("workload: negative op counts")
	}
	return nil
}

// Queue phase labels.
const (
	PhaseQueueFill  = "Fill"
	PhaseQueueSlide = "Slide"
	PhaseQueueDrain = "Drain"
)

// queueGen carries the queue generator's state.
//
// Representation: a rooted anchor object points at the oldest live entry,
// and each entry points at the next newer one. Appends link the previous
// newest entry to the new one; trims repoint the anchor past the oldest
// entry, which becomes garbage in that single overwrite (its forward
// pointer targets the still-reachable second-oldest entry, so it pins
// nothing the anchor does not already reach).
type queueGen struct {
	p   QueueParams
	rng *rand.Rand
	tr  trace.Builder
	st  *objstore.Store

	anchor objstore.OID
	live   []objstore.OID // oldest first
}

// Queue generates the three-phase sliding-window trace.
func Queue(p QueueParams, seed int64) (*trace.Trace, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	g := &queueGen{
		p:   p,
		rng: rand.New(rand.NewSource(seed)),
		st:  objstore.NewStore(),
	}
	if err := g.fill(); err != nil {
		return nil, err
	}
	if err := g.slide(); err != nil {
		return nil, err
	}
	if err := g.drain(); err != nil {
		return nil, err
	}
	return g.tr.Trace(), nil
}

func (g *queueGen) phase(label string) {
	g.tr.Append(trace.Event{Kind: trace.KindPhase, Label: trace.MakeLabel(label)})
}

func (g *queueGen) entrySize() int {
	return g.p.EntryBytesMin + g.rng.Intn(g.p.EntryBytesMax-g.p.EntryBytesMin+1)
}

// appendEntry creates a new newest entry, linked from the previous newest
// (or from the anchor when the queue is empty).
func (g *queueGen) appendEntry() error {
	e, err := g.st.Create(objstore.ClassUnknown, g.entrySize(), 1)
	if err != nil {
		return err
	}
	g.tr.Append(trace.Event{Kind: trace.KindCreate, OID: e.OID, Class: e.Class, Size: int(e.Size), Slots: 1})
	if n := len(g.live); n > 0 {
		prev := g.live[n-1]
		if _, err := g.st.SetSlot(prev, 0, e.OID); err != nil {
			return err
		}
		g.tr.Append(trace.Event{Kind: trace.KindOverwrite, OID: prev, Slot: 0, New: e.OID, Init: true})
	} else {
		if _, err := g.st.SetSlot(g.anchor, 0, e.OID); err != nil {
			return err
		}
		g.tr.Append(trace.Event{Kind: trace.KindOverwrite, OID: g.anchor, Slot: 0, New: e.OID, Init: true})
	}
	g.live = append(g.live, e.OID)
	return nil
}

// trimTail repoints the anchor past the oldest entry, which becomes
// garbage in that single overwrite (its forward pointer targets the still
// reachable second-oldest entry, pinning nothing).
func (g *queueGen) trimTail() error {
	oldest := g.live[0]
	second := g.live[1]
	old, err := g.st.SetSlot(g.anchor, 0, second)
	if err != nil {
		return err
	}
	o := g.st.Get(oldest)
	if o == nil {
		return fmt.Errorf("workload: queue entry %v vanished", oldest)
	}
	dead := g.tr.Dead(1)
	dead[0] = trace.DeadObject{OID: oldest, Size: int(o.Size)}
	g.tr.Append(trace.Event{Kind: trace.KindOverwrite, OID: g.anchor, Slot: 0, Old: old, New: second, Dead: dead})
	g.live = g.live[1:]
	return nil
}

func (g *queueGen) randomRead() {
	g.tr.Append(trace.Event{Kind: trace.KindAccess, OID: g.live[g.rng.Intn(len(g.live))]})
}

func (g *queueGen) fill() error {
	g.phase(PhaseQueueFill)
	a, err := g.st.Create(objstore.ClassModule, 64, 1)
	if err != nil {
		return err
	}
	g.anchor = a.OID
	g.tr.Append(trace.Event{Kind: trace.KindCreate, OID: a.OID, Class: a.Class, Size: int(a.Size), Slots: 1})
	if err := g.st.AddRoot(a.OID); err != nil {
		return err
	}
	g.tr.Append(trace.Event{Kind: trace.KindRoot, OID: a.OID, Size: 1})
	for i := 0; i < g.p.WindowEntries; i++ {
		if err := g.appendEntry(); err != nil {
			return err
		}
	}
	return nil
}

func (g *queueGen) slide() error {
	g.phase(PhaseQueueSlide)
	for i := 0; i < g.p.Appends; i++ {
		if err := g.appendEntry(); err != nil {
			return err
		}
		if err := g.trimTail(); err != nil {
			return err
		}
		for r := 0; r < g.p.ReadsPerAppend; r++ {
			g.randomRead()
		}
	}
	return nil
}

func (g *queueGen) drain() error {
	g.phase(PhaseQueueDrain)
	for len(g.live) > 1 {
		if err := g.trimTail(); err != nil {
			return err
		}
	}
	// The final entry: sever the anchor entirely.
	last := g.live[0]
	old, err := g.st.SetSlot(g.anchor, 0, objstore.NilOID)
	if err != nil {
		return err
	}
	o := g.st.Get(last)
	if o == nil {
		return fmt.Errorf("workload: queue entry %v vanished", last)
	}
	dead := g.tr.Dead(1)
	dead[0] = trace.DeadObject{OID: last, Size: int(o.Size)}
	g.tr.Append(trace.Event{Kind: trace.KindOverwrite, OID: g.anchor, Slot: 0, Old: old, New: objstore.NilOID, Dead: dead})
	g.live = nil
	return nil
}
