package trace

// Builder accumulates the events of a trace whose length is not known until
// it ends: a generator's output, a decoded stream. Events land in fixed-size
// chunks, so nothing already appended is moved or re-cleared as the trace
// grows; Trace copies them once into a slice of exactly the final length.
// Appending to one []Event instead regrows a pointer-bearing array 1.25× at a
// time: about five times the final bytes allocated and cleared, and up to a
// quarter of the result left as unused capacity.
//
// The zero Builder is empty and ready to use.
type Builder struct {
	full [][]Event // filled chunks, each builderChunk long
	cur  []Event   // the chunk being filled
	dead deadArena
}

// builderChunk is the events per chunk: 1024 × 112 bytes = 112 KiB.
const builderChunk = 1024

// Append adds an event.
func (b *Builder) Append(e Event) {
	if len(b.cur) == cap(b.cur) {
		if b.cur != nil {
			b.full = append(b.full, b.cur)
		}
		//lint:allow hotpath one chunk per 1024 events
		b.cur = make([]Event, 0, builderChunk)
	}
	b.cur = append(b.cur, e)
}

// Len returns the number of events appended so far.
func (b *Builder) Len() int { return len(b.full)*builderChunk + len(b.cur) }

// Dead returns an n-entry dead list for the producer to fill and attach to
// the event it appends next. The entries are carved from a shared arena (see
// deadArena); the event owns them from then on.
func (b *Builder) Dead(n int) []DeadObject { return b.dead.alloc(n) }

// Trace returns the events appended so far as a Trace whose Events slice is
// exactly sized (cap == len). It is a snapshot: the builder keeps its chunks
// and may be appended to afterwards, which the returned trace does not see.
// Dead lists are shared between snapshots and are immutable.
func (b *Builder) Trace() *Trace {
	//lint:allow hotpath the result: one exactly sized slice per trace produced
	events := make([]Event, 0, b.Len())
	for _, c := range b.full {
		events = append(events, c...)
	}
	//lint:allow hotpath the result
	return &Trace{Events: append(events, b.cur...)}
}

// deadArena hands out Event.Dead backing storage in chunks, so producing a
// trace performs one allocation per ~4096 dead-list entries instead of one
// per overwrite event. Handed-out slices are never reused — events own them
// for good — the arena only batches the allocations.
type deadArena struct {
	free []DeadObject // unused tail of the current chunk
}

// deadArenaChunk is the arena granularity: 4096 entries = 64 KiB.
const deadArenaChunk = 4096

// alloc carves an n-entry slice out of the arena, starting a new chunk when
// the current one is exhausted. The slice's capacity is n, so appending to it
// copies it out rather than running into its neighbour.
func (a *deadArena) alloc(n int) []DeadObject {
	if len(a.free) < n {
		//lint:allow hotpath arena chunk: one allocation amortizes thousands of dead-list entries
		a.free = make([]DeadObject, max(n, deadArenaChunk))
	}
	out := a.free[:n:n]
	a.free = a.free[n:]
	return out
}
