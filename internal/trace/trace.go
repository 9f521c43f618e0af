// Package trace defines the database application event stream that drives
// the simulator, together with codecs for storing streams on disk.
//
// A trace is a sequence of events describing what an application did to an
// object database: object creations, read accesses, non-pointer updates, and
// pointer overwrites. Pointer-overwrite events may carry oracle annotations:
// the exact set of objects that became unreachable because of the overwrite.
// The simulator uses the annotations as ground truth for "actual garbage"
// (the paper's perfect estimator); the simulated collector never looks at
// them and must discover garbage by tracing partitions.
package trace

import (
	"errors"
	"fmt"

	"odbgc/internal/objstore"
	"odbgc/internal/simerr"
)

// Kind discriminates event types.
type Kind uint8

// Event kinds.
const (
	// KindCreate allocates a new object. OID, Class, Size and Slots are set.
	KindCreate Kind = iota + 1
	// KindAccess is a read of an object (navigational access).
	KindAccess
	// KindUpdate is a write to an object's non-pointer data.
	KindUpdate
	// KindOverwrite modifies pointer slot Slot of object OID from Old to New.
	// Dead lists objects that became unreachable as a result (oracle info).
	KindOverwrite
	// KindPhase marks an application phase boundary; Label names the phase.
	KindPhase
	// KindRoot adds (Size==1) or removes (Size==0) OID from the root set.
	KindRoot
	// KindIdle marks one tick of application quiescence: no application
	// work is happening. Opportunistic policies may use idle ticks to
	// collect beyond their user-stated limits (§5 of the paper sketches
	// this extension). Size carries the tick count (>= 1).
	KindIdle
)

var kindNames = map[Kind]string{
	KindCreate:    "create",
	KindAccess:    "access",
	KindUpdate:    "update",
	KindOverwrite: "overwrite",
	KindPhase:     "phase",
	KindRoot:      "root",
	KindIdle:      "idle",
}

// String returns the lowercase event-kind name.
func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one trace record. Field use depends on Kind; unused fields are
// zero. Events are values and are safe to copy; the Dead slice is owned by
// the event and must not be mutated by consumers.
type Event struct {
	Kind  Kind
	OID   objstore.OID   // subject object (Create/Access/Update/Overwrite/Root)
	Class objstore.Class // Create only
	Size  int            // Create: byte size; Root: 1=add, 0=remove
	Slots int            // Create: number of pointer slots
	Slot  int            // Overwrite: slot index in OID
	Old   objstore.OID   // Overwrite: previous slot value (for validation)
	New   objstore.OID   // Overwrite: new slot value (may be nil)
	Label string         // Phase only

	// Init marks an overwrite as an initializing store: wiring performed
	// while constructing brand-new structure (e.g. connecting a freshly
	// created object's slots). Initializing stores maintain the object
	// graph and dirty pages but are invisible to the rate policies — they
	// cannot create garbage (Old is always nil) and do not advance the
	// pointer-overwrite clock.
	Init bool

	// Dead is the oracle annotation on an overwrite: the OIDs that became
	// unreachable from the roots as a direct result of this overwrite,
	// together with their sizes. Nil when no garbage was created.
	Dead []DeadObject
}

// DeadObject records one object that an overwrite made unreachable.
type DeadObject struct {
	OID  objstore.OID
	Size int
}

// DeadBytes sums the sizes in the oracle annotation.
func (e *Event) DeadBytes() int {
	n := 0
	for _, d := range e.Dead {
		n += d.Size
	}
	return n
}

// String renders the event for logs and the tracedump tool.
func (e *Event) String() string {
	switch e.Kind {
	case KindCreate:
		return fmt.Sprintf("create %v class=%v size=%d slots=%d", e.OID, e.Class, e.Size, e.Slots)
	case KindAccess:
		return fmt.Sprintf("access %v", e.OID)
	case KindUpdate:
		return fmt.Sprintf("update %v", e.OID)
	case KindOverwrite:
		tag := ""
		if e.Init {
			tag = " init"
		}
		return fmt.Sprintf("overwrite%s %v[%d] %v -> %v dead=%d(%dB)",
			tag, e.OID, e.Slot, e.Old, e.New, len(e.Dead), e.DeadBytes())
	case KindPhase:
		return fmt.Sprintf("phase %q", e.Label)
	case KindRoot:
		if e.Size == 1 {
			return fmt.Sprintf("root + %v", e.OID)
		}
		return fmt.Sprintf("root - %v", e.OID)
	case KindIdle:
		return fmt.Sprintf("idle %d", e.Size)
	default:
		return fmt.Sprintf("event kind=%d", e.Kind)
	}
}

// Validate checks internal consistency of a single event.
func (e *Event) Validate() error {
	switch e.Kind {
	case KindCreate:
		if e.OID.IsNil() {
			return fmt.Errorf("trace: create with nil OID")
		}
		if e.Size < 0 || e.Slots < 0 {
			return fmt.Errorf("trace: create %v with negative size/slots", e.OID)
		}
	case KindAccess, KindUpdate:
		if e.OID.IsNil() {
			return fmt.Errorf("trace: %v of nil OID", e.Kind)
		}
	case KindOverwrite:
		if e.OID.IsNil() {
			return fmt.Errorf("trace: overwrite on nil OID")
		}
		if e.Slot < 0 {
			return fmt.Errorf("trace: overwrite with negative slot")
		}
		if e.Init && !e.Old.IsNil() {
			return fmt.Errorf("trace: initializing overwrite on %v has non-nil old value", e.OID)
		}
		if e.Init && len(e.Dead) > 0 {
			return fmt.Errorf("trace: initializing overwrite on %v claims to create garbage", e.OID)
		}
		for _, d := range e.Dead {
			if d.OID.IsNil() || d.Size < 0 {
				return fmt.Errorf("trace: overwrite %v has invalid dead entry %+v", e.OID, d)
			}
		}
	case KindPhase:
		if e.Label == "" {
			return fmt.Errorf("trace: phase with empty label")
		}
	case KindRoot:
		if e.OID.IsNil() {
			return fmt.Errorf("trace: root event with nil OID")
		}
		if e.Size != 0 && e.Size != 1 {
			return fmt.Errorf("trace: root event with size %d (want 0 or 1)", e.Size)
		}
	case KindIdle:
		if e.Size < 1 {
			return fmt.Errorf("trace: idle event with tick count %d (want >= 1)", e.Size)
		}
	default:
		return fmt.Errorf("trace: unknown event kind %d", e.Kind)
	}
	return nil
}

// Trace is an in-memory event sequence.
type Trace struct {
	Events []Event
}

// Append adds an event.
func (t *Trace) Append(e Event) { t.Events = append(t.Events, e) }

// Len returns the number of events.
func (t *Trace) Len() int { return len(t.Events) }

// Stats summarizes a trace.
type Stats struct {
	Events     int
	Creates    int
	Accesses   int
	Updates    int
	Overwrites int // non-initializing overwrites (the policies' clock)
	InitStores int // initializing overwrites
	IdleTicks  int // quiescence ticks
	Phases     []string
	// GarbageBytes is the total oracle garbage created over the trace.
	GarbageBytes int
	// GarbageObjects is the total count of objects the oracle saw die.
	GarbageObjects int
	// CreatedBytes is the total bytes allocated by create events.
	CreatedBytes int
	// BytesPerOverwrite is GarbageBytes / Overwrites (0 if no overwrites).
	BytesPerOverwrite float64
}

// ComputeStats scans the trace once and summarizes it.
func ComputeStats(t *Trace) Stats {
	var s Stats
	s.Events = len(t.Events)
	for i := range t.Events {
		e := &t.Events[i]
		switch e.Kind {
		case KindCreate:
			s.Creates++
			s.CreatedBytes += e.Size
		case KindAccess:
			s.Accesses++
		case KindUpdate:
			s.Updates++
		case KindOverwrite:
			if e.Init {
				s.InitStores++
			} else {
				s.Overwrites++
			}
			s.GarbageBytes += e.DeadBytes()
			s.GarbageObjects += len(e.Dead)
		case KindPhase:
			s.Phases = append(s.Phases, e.Label)
		case KindIdle:
			s.IdleTicks += e.Size
		}
	}
	if s.Overwrites > 0 {
		s.BytesPerOverwrite = float64(s.GarbageBytes) / float64(s.Overwrites)
	}
	return s
}

// Validate replays the trace against a scratch object store, checking that
// every event refers to objects that exist, that overwrite Old values match,
// and that oracle annotations are consistent with true reachability at the
// end of the trace. It returns the first error found.
func Validate(t *Trace) error {
	st := objstore.NewStore()
	var oracleDead objstore.Table[bool]
	for i := range t.Events {
		e := &t.Events[i]
		if err := e.Validate(); err != nil {
			return fmt.Errorf("event %d: %w", i, err)
		}
		switch e.Kind {
		case KindCreate:
			if _, err := st.CreateWithOID(e.OID, e.Class, e.Size, e.Slots); err != nil {
				if errors.Is(err, objstore.ErrOIDRange) || errors.Is(err, objstore.ErrSlotRange) {
					// No generator skips that far ahead or builds one that wide: damage.
					err = fmt.Errorf("%w: %w", simerr.ErrCorruptTrace, err)
				}
				return fmt.Errorf("event %d: %w", i, err)
			}
		case KindAccess, KindUpdate:
			if st.Get(e.OID) == nil {
				return fmt.Errorf("event %d: %v of absent object %v", i, e.Kind, e.OID)
			}
		case KindOverwrite:
			old, err := st.SetSlot(e.OID, e.Slot, e.New)
			if err != nil {
				return fmt.Errorf("event %d: %w", i, err)
			}
			if old != e.Old {
				return fmt.Errorf("event %d: overwrite %v[%d] recorded old %v, store has %v",
					i, e.OID, e.Slot, e.Old, old)
			}
			for _, d := range e.Dead {
				if oracleDead.Get(d.OID) {
					return fmt.Errorf("event %d: object %v reported dead twice", i, d.OID)
				}
				o := st.Get(d.OID)
				if o == nil {
					return fmt.Errorf("event %d: dead annotation for absent object %v", i, d.OID)
				}
				if o.Size != d.Size {
					return fmt.Errorf("event %d: dead annotation size %d for %v, store has %d",
						i, d.Size, d.OID, o.Size)
				}
				oracleDead.Set(d.OID, true)
			}
		case KindRoot:
			if e.Size == 1 {
				if err := st.AddRoot(e.OID); err != nil {
					return fmt.Errorf("event %d: %w", i, err)
				}
			} else {
				st.RemoveRoot(e.OID)
			}
		case KindIdle:
			// Quiescence changes no state.
		}
	}
	// Final cross-check: oracle-dead set must exactly equal the set of
	// unreachable objects in the replayed store.
	live := st.Reachable()
	var mismatch []objstore.OID
	st.ForEach(func(o *objstore.Object) {
		if live.Get(o.OID) == oracleDead.Get(o.OID) { // live objects must not be annotated; dead must be
			mismatch = append(mismatch, o.OID)
		}
	})
	if len(mismatch) > 0 {
		return fmt.Errorf("trace: oracle/reachability mismatch on %d objects (first: %v)",
			len(mismatch), mismatch[0])
	}
	return nil
}
