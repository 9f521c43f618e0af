package objstore

import "fmt"

// ObjectState is one object's checkpointable image.
type ObjectState struct {
	OID   OID
	Class Class
	Size  int
	Slots []OID
}

// StoreSnapshot is a checkpointable image of a Store, with objects and roots
// in ascending OID order so the encoded form is deterministic.
type StoreSnapshot struct {
	Objects []ObjectState
	Roots   []OID
	NextOID OID
}

// Snapshot captures the full object table and root set for checkpointing.
func (s *Store) Snapshot() *StoreSnapshot {
	st := &StoreSnapshot{NextOID: s.nextOID}
	st.Objects = make([]ObjectState, 0, s.objects.Len())
	s.ForEach(func(o *Object) {
		st.Objects = append(st.Objects, ObjectState{
			OID:   o.OID,
			Class: o.Class,
			Size:  int(o.Size),
			Slots: append([]OID(nil), o.Slots...),
		})
	})
	st.Roots = s.Roots()
	return st
}

// RestoreStore rebuilds a Store from a snapshot, validating it first.
func RestoreStore(st *StoreSnapshot) (*Store, error) {
	if st == nil {
		return nil, fmt.Errorf("objstore: nil store snapshot")
	}
	s := NewStore()
	// Every object of a sound snapshot lies below its NextOID. Declaring that
	// horizon first lets survivors that sit far apart through CreateWithOID's
	// gap check while an OID damaged into the far distance still fails it.
	s.AdvanceNextOID(st.NextOID)
	for _, os := range st.Objects {
		if err := s.Load(os.OID, os.Class, os.Size, os.Slots, false); err != nil {
			return nil, err
		}
	}
	for _, r := range st.Roots {
		if s.IsRoot(r) {
			return nil, fmt.Errorf("objstore: snapshot lists root %v twice", r)
		}
		if err := s.AddRoot(r); err != nil {
			return nil, err
		}
	}
	if s.nextOID != st.NextOID {
		return nil, fmt.Errorf("objstore: snapshot NextOID %v below highest object OID", st.NextOID)
	}
	return s, nil
}
