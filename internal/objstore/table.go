package objstore

// chunkBits sizes a Table chunk. 256 slots make a chunk of pointers one 2 KB
// allocation, small enough that a thinned-out population (a few survivors per
// thousand OIDs) gives most of its range back.
const (
	chunkBits = 8
	chunkSize = 1 << chunkBits
)

// Table maps OIDs to values of T: the paged array every layer keeps its
// per-object state in. OIDs are assigned in increasing order and never
// reused, so a table indexed by OID is dense where the database is young, a
// lookup is two indexings, and a walk in key order needs no sort.
//
// The zero value of T means "absent": Set(oid, zero) deletes, and Get of an
// OID that was never set, was deleted, or lies beyond anything ever set
// returns zero. Slots live in fixed-size chunks; a chunk whose slots are all
// zero is released, so memory follows the populated OIDs rather than the OID
// horizon. What does follow the horizon is the directory, at 12 bytes per
// chunk: Set grows it to reach any key, so callers bound the keys they accept
// from outside (see Store.CreateWithOID).
//
// The zero Table is empty and ready to use. A Table must not be copied after
// first use.
type Table[T comparable] struct {
	dir  []*[chunkSize]T
	used []int32 // non-zero slots in each chunk
	n    int
	// spare is the most recently released chunk (all zero). A population
	// that flickers around empty — the one rooted object at the allocation
	// frontier — reuses it instead of allocating a chunk per flicker.
	spare *[chunkSize]T
}

// Len returns the number of OIDs with a non-zero value.
func (t *Table[T]) Len() int { return t.n }

// Get returns the value stored for oid, or the zero value if there is none.
func (t *Table[T]) Get(oid OID) (v T) {
	if i := uint64(oid) >> chunkBits; i < uint64(len(t.dir)) {
		if c := t.dir[i]; c != nil {
			v = c[oid%chunkSize]
		}
	}
	return v
}

// Set stores v for oid; the zero value deletes the entry.
func (t *Table[T]) Set(oid OID, v T) {
	var zero T
	i := uint64(oid) >> chunkBits
	if i >= uint64(len(t.dir)) {
		if v == zero {
			return
		}
		for uint64(len(t.dir)) <= i {
			t.dir = append(t.dir, nil)
			t.used = append(t.used, 0)
		}
	}
	c := t.dir[i]
	if c == nil {
		if v == zero {
			return
		}
		if c = t.spare; c != nil {
			t.spare = nil
		} else {
			c = new([chunkSize]T)
		}
		t.dir[i] = c
	}
	slot := &c[oid%chunkSize]
	switch {
	case *slot == zero && v != zero:
		t.used[i]++
		t.n++
	case *slot != zero && v == zero:
		t.used[i]--
		t.n--
	}
	*slot = v
	if t.used[i] == 0 {
		t.dir[i], t.spare = nil, c
	}
}

// ForEach calls fn for every entry in ascending OID order. fn must not modify
// the table.
func (t *Table[T]) ForEach(fn func(OID, T)) {
	var zero T
	for i, c := range t.dir {
		if c == nil {
			continue
		}
		base := OID(i) << chunkBits
		for j, v := range c {
			if v != zero {
				fn(base+OID(j), v)
			}
		}
	}
}
