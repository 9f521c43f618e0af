package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"

	"odbgc/internal/storage"
)

// Snapshotter is implemented by policies and estimators whose scheduling
// state a restart must carry (a state image's records, disk.WriteImage).
// Stateless components (NeverCollect, OracleEstimator) simply do not
// implement it.
//
// SnapshotState returns an opaque, self-contained encoding; RestoreState
// accepts exactly what SnapshotState produced for a component constructed
// with the same configuration. Configuration itself is not part of the
// state — the restoring caller reconstructs components from configuration and
// then feeds them their state.
//
// Every Snapshotter here keeps its mutable fields in one state struct
// declared in this file and encodes that struct itself, so a field the
// component mutates is a field the snapshot carries.
type Snapshotter interface {
	SnapshotState() ([]byte, error)
	RestoreState(data []byte) error
}

// SnapshotComponent captures a component's state if it has any. Components
// that do not implement Snapshotter yield nil, which RestoreComponent
// accepts back as a no-op.
func SnapshotComponent(v any) ([]byte, error) {
	if s, ok := v.(Snapshotter); ok {
		return s.SnapshotState()
	}
	return nil, nil
}

// RestoreComponent hands previously captured state back to a component.
func RestoreComponent(v any, data []byte) error {
	if s, ok := v.(Snapshotter); ok {
		return s.RestoreState(data)
	}
	if len(data) != 0 {
		return fmt.Errorf("core: %d bytes of state for a stateless component %T", len(data), v)
	}
	return nil
}

// EncodeState is the body of a SnapshotState: it gob-encodes the state
// struct st, then the snapshot of each wrapped component in order. A nil st
// encodes the wrapped components alone.
func EncodeState(st any, wrapped ...any) ([]byte, error) {
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if st != nil {
		if err := enc.Encode(st); err != nil {
			return nil, err
		}
	}
	for _, w := range wrapped {
		data, err := SnapshotComponent(w)
		if err != nil {
			return nil, err
		}
		if err := enc.Encode(data); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// DecodeState is the body of a RestoreState, the inverse of EncodeState with
// the same st and wrapped components. It replaces *st only once the whole
// stream has decoded and every wrapped component has taken its state back,
// so a damaged stream leaves the component's own state as it was. A nil st
// (with T named explicitly) decodes the wrapped components alone.
func DecodeState[T any](data []byte, st *T, wrapped ...any) error {
	dec := gob.NewDecoder(bytes.NewReader(data))
	var next T
	if st != nil {
		if err := dec.Decode(&next); err != nil {
			return err
		}
	}
	for _, w := range wrapped {
		var b []byte
		if err := dec.Decode(&b); err != nil {
			return err
		}
		if err := RestoreComponent(w, b); err != nil {
			return err
		}
	}
	if st != nil {
		*st = next
	}
	return nil
}

// --- policies ---------------------------------------------------------------

// fixedRateState is FixedRate's mutable state.
type fixedRateState struct {
	NextAt uint64 // overwrite clock at which to collect next
	Armed  bool   // NextAt has been set
}

// SnapshotState implements Snapshotter.
func (p *FixedRate) SnapshotState() ([]byte, error) { return EncodeState(p.st) }

// RestoreState implements Snapshotter.
func (p *FixedRate) RestoreState(data []byte) error { return DecodeState(data, &p.st) }

// saioState is SAIO's mutable state.
type saioState struct {
	// The c_hist window of per-collection (appIO, gcIO) deltas, newest last.
	HistApp []uint64
	HistGC  []uint64

	LastAppIO uint64 // clock at last collection, to compute app deltas
	NextAt    uint64 // absolute AppIO at which to collect next
	Armed     bool
}

// SnapshotState implements Snapshotter.
func (p *SAIO) SnapshotState() ([]byte, error) { return EncodeState(p.st) }

// RestoreState implements Snapshotter.
func (p *SAIO) RestoreState(data []byte) error { return DecodeState(data, &p.st) }

// sagaState is SAGA's mutable state; the estimator's rides after it.
type sagaState struct {
	Slope     float64 // TotGarb'(t) estimate, bytes per overwrite
	HaveSlope bool
	PrevT     uint64  // overwrite clock at previous slope sample
	PrevTot   float64 // TotGarb estimate at previous slope sample
	HavePrev  bool

	NextAt uint64
	Armed  bool

	// Diagnostics exposed for the time-varying figures.
	LastEstimate float64
	LastTarget   float64
	LastInterval uint64
	ClampedMin   uint64 // how many times DtMin clamped the interval
	ClampedMax   uint64 // how many times DtMax clamped the interval
	BadSignals   uint64 // estimator outputs rejected as NaN/Inf/negative
}

// SnapshotState implements Snapshotter.
func (p *SAGA) SnapshotState() ([]byte, error) { return EncodeState(p.st, p.est) }

// RestoreState implements Snapshotter.
func (p *SAGA) RestoreState(data []byte) error { return DecodeState(data, &p.st, p.est) }

// piState is PIController's mutable state.
type piState struct {
	Integral float64
	NextAt   uint64
	Armed    bool

	LastEstimate float64
	LastTarget   float64
	LastInterval uint64
}

// SnapshotState implements Snapshotter.
func (p *PIController) SnapshotState() ([]byte, error) { return EncodeState(p.st, p.est) }

// RestoreState implements Snapshotter.
func (p *PIController) RestoreState(data []byte) error { return DecodeState(data, &p.st, p.est) }

// coupledState is Coupled's mutable state.
type coupledState struct {
	NextAt      uint64
	Armed       bool
	LastEffFrac float64
}

// SnapshotState implements Snapshotter.
func (p *Coupled) SnapshotState() ([]byte, error) { return EncodeState(p.st, p.est) }

// RestoreState implements Snapshotter.
func (p *Coupled) RestoreState(data []byte) error { return DecodeState(data, &p.st, p.est) }

// SnapshotState implements Snapshotter: the wrapped policy and estimator
// carry the actual state.
func (p *Opportunistic) SnapshotState() ([]byte, error) { return EncodeState(nil, p.inner, p.est) }

// RestoreState implements Snapshotter.
func (p *Opportunistic) RestoreState(data []byte) error {
	return DecodeState[struct{}](data, nil, p.inner, p.est)
}

// --- estimators -------------------------------------------------------------

// cgscbState is CGSCB's mutable state.
type cgscbState struct {
	LastReclaimed float64
}

// SnapshotState implements Snapshotter.
func (e *CGSCB) SnapshotState() ([]byte, error) { return EncodeState(e.st) }

// RestoreState implements Snapshotter.
func (e *CGSCB) RestoreState(data []byte) error { return DecodeState(data, &e.st) }

// fgshbState is FGSHB's mutable state.
type fgshbState struct {
	GppoH   float64
	HaveObs bool
}

// SnapshotState implements Snapshotter.
func (e *FGSHB) SnapshotState() ([]byte, error) { return EncodeState(e.st) }

// RestoreState implements Snapshotter.
func (e *FGSHB) RestoreState(data []byte) error { return DecodeState(data, &e.st) }

// fgsWindowState is FGSWindow's mutable state.
type fgsWindowState struct {
	Samples []float64 // the last Window GPPO samples, oldest first
}

// SnapshotState implements Snapshotter.
func (e *FGSWindow) SnapshotState() ([]byte, error) { return EncodeState(e.st) }

// RestoreState implements Snapshotter.
func (e *FGSWindow) RestoreState(data []byte) error { return DecodeState(data, &e.st) }

type partitionGPPO struct {
	Part storage.PartitionID
	GPPO float64
}

// fgsPerPartitionState is FGSPerPartition's snapshot image: the live state
// is a map, which encodes here as a slice sorted by partition so the bytes
// are deterministic. The global FGS/HB estimate rides after it.
type fgsPerPartitionState struct {
	PerPart []partitionGPPO
}

// SnapshotState implements Snapshotter.
func (e *FGSPerPartition) SnapshotState() ([]byte, error) {
	var st fgsPerPartitionState
	for p, g := range e.perPart {
		st.PerPart = append(st.PerPart, partitionGPPO{Part: p, GPPO: g})
	}
	sort.Slice(st.PerPart, func(i, j int) bool { return st.PerPart[i].Part < st.PerPart[j].Part })
	return EncodeState(st, &e.global)
}

// RestoreState implements Snapshotter.
func (e *FGSPerPartition) RestoreState(data []byte) error {
	var st fgsPerPartitionState
	if err := DecodeState(data, &st, &e.global); err != nil {
		return err
	}
	e.perPart = make(map[storage.PartitionID]float64, len(st.PerPart))
	for _, pg := range st.PerPart {
		e.perPart[pg.Part] = pg.GPPO
	}
	return nil
}

// fallbackState is FallbackEstimator's mutable state; the primary's and the
// fallback's ride after it.
type fallbackState struct {
	Bad     int // consecutive bad primary readings
	Good    int // consecutive good primary readings
	Tripped bool

	Trips      uint64
	Recoveries uint64
}

// SnapshotState implements Snapshotter.
func (e *FallbackEstimator) SnapshotState() ([]byte, error) {
	return EncodeState(e.st, e.primary, e.fallback)
}

// RestoreState implements Snapshotter.
func (e *FallbackEstimator) RestoreState(data []byte) error {
	return DecodeState(data, &e.st, e.primary, e.fallback)
}
