package sim

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"

	"odbgc/internal/core"
	"odbgc/internal/gc"
	"odbgc/internal/metrics"
	"odbgc/internal/obs"
	"odbgc/internal/simerr"
	"odbgc/internal/storage"
)

// Checkpoint is a simulation's complete mid-run state: the heap (which
// embeds the object store and physical storage), the policy and selection
// controller state, and every metrics accumulator. Resuming from a checkpoint
// and replaying the remaining events produces a Result bit-identical to the
// uninterrupted run.
//
// The trace itself is not part of the checkpoint — the resuming caller
// replays the same trace and skips the first Step events.
type Checkpoint struct {
	// Step is the event cursor: how many events the run had applied.
	Step        int
	CurPhase    string
	CollectSafe bool

	Heap      *gc.HeapSnapshot
	Policy    []byte // core.SnapshotComponent of the rate policy
	Selection []byte // core.SnapshotComponent of the selection policy

	// Metrics accumulators.
	PhaseOpen   bool
	PhaseAcc    PhaseSummary
	PhaseGarb   metrics.MeanState
	PhaseIOBase storage.IOStats
	GarbBuckets []metrics.MeanState

	// Result is the summary-in-progress (events, collection records, phase
	// marks). Final totals are recomputed by Finish.
	Result *Result
}

func gobClone[T any](v T) (T, error) {
	var out T
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return out, err
	}
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		return out, err
	}
	return out, nil
}

// Checkpoint captures the simulator's state. It can be taken between any two
// Step calls at a collection-safe point; checkpointing mid-construction (the
// event just applied was a create or initializing store) is rejected because
// the restored heap could not pass its reachability validation.
func (s *Simulator) Checkpoint() (*Checkpoint, error) {
	if s.loop.midBuild {
		return nil, fmt.Errorf("sim: checkpoint at event %d is mid-construction; step past the initializing stores first", s.step)
	}
	policy, err := core.SnapshotComponent(s.cfg.Policy)
	if err != nil {
		return nil, fmt.Errorf("sim: snapshotting policy: %w", err)
	}
	selection, err := core.SnapshotComponent(s.cfg.Selection)
	if err != nil {
		return nil, fmt.Errorf("sim: snapshotting selection: %w", err)
	}
	// Deep-copy the in-progress result so the live run and the checkpoint do
	// not share slice backing arrays.
	res, err := gobClone(s.res)
	if err != nil {
		return nil, fmt.Errorf("sim: cloning result: %w", err)
	}
	cp := &Checkpoint{
		Step:        s.step,
		CurPhase:    s.curPhase,
		CollectSafe: !s.loop.midBuild,
		Heap:        s.heap.Snapshot(),
		Policy:      policy,
		Selection:   selection,
		PhaseGarb:   s.phaseGarb.State(),
		PhaseIOBase: s.phaseIOBase,
		Result:      res,
	}
	if s.phaseAcc != nil {
		cp.PhaseOpen = true
		cp.PhaseAcc = *s.phaseAcc
	}
	for _, m := range s.garbBuckets {
		cp.GarbBuckets = append(cp.GarbBuckets, m.State())
	}
	if s.cfg.Observer != nil {
		s.cfg.Observer.ObserveCheckpoint(obs.CheckpointMark{Step: s.step, Op: "save"})
	}
	return cp, nil
}

// Resume reconstructs a simulator from a checkpoint. The config must carry
// freshly constructed policy and selection components with the same
// configuration as the checkpointed run — Resume hands them their state
// back. Replay the same trace, skipping the first cp.Step events.
func Resume(cfg Config, cp *Checkpoint) (*Simulator, error) {
	if cp == nil || cp.Result == nil {
		return nil, fmt.Errorf("sim: nil checkpoint")
	}
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	// Policy and selection names encode their parameters, so a mismatch means
	// the caller is resuming under a different configuration than the run was
	// checkpointed with — the restored state would be silently wrong.
	if n := cfg.Policy.Name(); n != cp.Result.PolicyName {
		return nil, fmt.Errorf("sim: resume config builds policy %q but the checkpoint was taken with %q", n, cp.Result.PolicyName)
	}
	if n := cfg.Selection.Name(); n != cp.Result.SelectionName {
		return nil, fmt.Errorf("sim: resume config builds selection %q but the checkpoint was taken with %q", n, cp.Result.SelectionName)
	}
	// A heap image that fails its own validation is damaged persisted state,
	// whatever the field: an OID bit-flipped past the horizon, a dropped
	// remembered-set entry, a total that no longer adds up.
	heap, err := gc.RestoreHeap(cp.Heap)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", simerr.WrapCorruptCheckpoint("restoring heap", err))
	}
	heap.SetPhysicalFixups(cfg.PhysicalFixups)
	if err := core.RestoreComponent(cfg.Policy, cp.Policy); err != nil {
		return nil, fmt.Errorf("sim: restoring policy state: %w", err)
	}
	if err := core.RestoreComponent(cfg.Selection, cp.Selection); err != nil {
		return nil, fmt.Errorf("sim: restoring selection state: %w", err)
	}
	res, err := gobClone(cp.Result)
	if err != nil {
		return nil, fmt.Errorf("sim: cloning result: %w", err)
	}
	s := assemble(cfg, heap, res)
	s.curPhase, s.step, s.phaseIOBase = cp.CurPhase, cp.Step, cp.PhaseIOBase
	// GC span IDs go on from the collection the checkpoint had reached.
	s.loop.midBuild, s.loop.spans = !cp.CollectSafe, heap.Collections()
	if n := len(res.Collections); n > 0 {
		s.loop.Cycle.LastOverwrites = res.Collections[n-1].Clock.Overwrites
	}
	s.phaseGarb, err = metrics.MeanFromState(cp.PhaseGarb)
	if err != nil {
		return nil, fmt.Errorf("sim: restoring phase accumulator: %w", err)
	}
	for i, st := range cp.GarbBuckets {
		m, err := metrics.MeanFromState(st)
		if err != nil {
			return nil, fmt.Errorf("sim: restoring garbage bucket %d: %w", i, err)
		}
		s.garbBuckets = append(s.garbBuckets, m)
	}
	if cp.PhaseOpen {
		acc := cp.PhaseAcc
		s.phaseAcc = &acc
	}
	if cfg.Observer != nil {
		cfg.Observer.ObserveRunStart(s.runStart(cp.Step))
		cfg.Observer.ObserveCheckpoint(obs.CheckpointMark{Step: cp.Step, Op: "resume"})
	}
	return s, nil
}

// WriteCheckpoint gob-encodes a checkpoint to w.
func WriteCheckpoint(w io.Writer, cp *Checkpoint) error {
	return gob.NewEncoder(w).Encode(cp)
}

// ReadCheckpoint decodes a checkpoint written by WriteCheckpoint. A torn or
// damaged stream returns an error classified as simerr.ErrCorruptCheckpoint;
// a decoder panic on hostile bytes is converted into the same class rather
// than escaping the library boundary.
func ReadCheckpoint(r io.Reader) (cp *Checkpoint, err error) {
	defer func() {
		if p := recover(); p != nil {
			cp, err = nil, simerr.WrapCorruptCheckpoint("decoding checkpoint",
				fmt.Errorf("decoder panic: %v", p))
		}
	}()
	var c Checkpoint
	if derr := gob.NewDecoder(r).Decode(&c); derr != nil {
		return nil, fmt.Errorf("sim: %w", simerr.WrapCorruptCheckpoint("decoding checkpoint", derr))
	}
	return &c, nil
}
