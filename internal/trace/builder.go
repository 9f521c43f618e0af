package trace

// Builder accumulates the events of a trace whose length is not known until
// it ends, such as a generator's output. Events land in fixed-size chunks, so
// nothing already appended is moved or re-cleared as the trace grows; Trace
// copies them once into a slice of exactly the final length.
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

// builderChunk is the events per chunk: 1024 × 80 bytes = 80 KiB.
const builderChunk = 1024

// Append adds an event.
func (b *Builder) Append(e Event) {
	if len(b.cur) == cap(b.cur) {
		if b.cur != nil {
			b.full = append(b.full, b.cur)
		}
		b.cur = make([]Event, 0, builderChunk)
	}
	b.cur = append(b.cur, e)
}

// Len returns the number of events appended so far.
func (b *Builder) Len() int { return len(b.full)*builderChunk + len(b.cur) }

// Dead returns an n-entry dead list for the producer to fill and attach to
// the event it appends next. The entries are carved from a shared arena (see
// deadArena); the event owns them from then on.
func (b *Builder) Dead(n int) []DeadObject { return b.dead.take(n) }

// Trace returns the events appended so far as a Trace whose Events slice is
// exactly sized (cap == len). It is a snapshot: the builder keeps its chunks
// and may be appended to afterwards, which the returned trace does not see.
// Dead lists are shared between snapshots and are immutable.
func (b *Builder) Trace() *Trace {
	events := make([]Event, 0, b.Len())
	for _, c := range b.full {
		events = append(events, c...)
	}
	return &Trace{Events: append(events, b.cur...)}
}

// deadArena hands out Event.Dead backing storage in chunks, so producing a
// trace performs one allocation per ~4096 dead-list entries instead of one
// per overwrite event. Handed-out slices are never reused — events own them
// for good — the arena only batches the allocations. ReadAll starts one as a
// single chunk of exactly the entries it counted.
type deadArena struct {
	free []DeadObject // unused tail of the current chunk
}

// deadArenaChunk is the arena granularity: 4096 entries = 64 KiB.
const deadArenaChunk = 4096

// room returns the n entries the arena hands out next, starting a new chunk
// when the current one is too short, and take hands them out: a decoder that
// fails half way takes nothing. A list's capacity is its length, so appending
// to it copies it out rather than running into its neighbour.
func (a *deadArena) room(n int) []DeadObject {
	if len(a.free) < n {
		a.free = make([]DeadObject, max(n, deadArenaChunk))
	}
	return a.free[:n:n]
}

func (a *deadArena) take(n int) []DeadObject {
	list := a.room(n)
	a.free = a.free[n:]
	return list
}
