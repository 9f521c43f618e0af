package sim

import (
	"bytes"
	"cmp"
	"encoding/gob"
	"fmt"

	"odbgc/internal/core"
	"odbgc/internal/gc"
	"odbgc/internal/metrics"
	"odbgc/internal/obs"
	"odbgc/internal/simerr"
	"odbgc/internal/storage"
	"odbgc/internal/storage/disk"
)

// Checkpoint returns the simulator's complete mid-run state as a database
// image (disk.WriteImage): the heap.db a checkpoint of the heap's objects
// writes, whose state chain carries the storage manager's state and four
// records — the heap's counters, the rate and selection policies' snapshots
// (core.SnapshotComponent) and the run's accumulators. Resuming from it and
// replaying the remaining events produces a Result bit-identical to the
// uninterrupted run. The trace is not part of it: the resuming caller replays
// the same trace and skips the events the run had applied. A checkpoint
// mid-construction (the event just applied was a create or an initializing
// store) is refused: the restored heap could not pass its validation.
func (s *Simulator) Checkpoint() ([]byte, error) {
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
	run, err := s.appendRun()
	if err != nil {
		return nil, fmt.Errorf("sim: encoding the run record: %w", err)
	}
	img, err := disk.WriteImage(s.heap.Store(), s.disk, s.heap.AppendState(nil), policy, selection, run)
	if err != nil {
		return nil, fmt.Errorf("sim: writing checkpoint image: %w", err)
	}
	if s.cfg.Observer != nil {
		s.cfg.Observer.Observe(obs.Envelope{Checkpoint: &obs.CheckpointMark{Step: s.step, Op: "save"}})
	}
	return img, nil
}

// Resume reconstructs a simulator from a checkpoint image. The config must
// carry freshly constructed policy and selection components with the same
// configuration as the checkpointed run — Resume hands them their state back.
// Replay the same trace, skipping the events the checkpointed run had
// applied. An image that fails any check — the loader's, the heap's
// invariants, a record's decoding — is a corrupt checkpoint
// (simerr.ErrCorruptCheckpoint).
func Resume(cfg Config, img []byte) (*Simulator, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	corrupt := func(what string, err error) error {
		return fmt.Errorf("sim: %w", simerr.WrapCorruptCheckpoint(what, err))
	}
	objs, mgr, recs, err := disk.ReadImage(img)
	if err != nil {
		return nil, corrupt("loading image", err)
	}
	if len(recs) != 4 {
		return nil, corrupt("loading image", fmt.Errorf("%d records, want 4", len(recs)))
	}
	heap := gc.NewHeap(objs, mgr)
	if err := heap.Load(objs); err != nil {
		return nil, corrupt("loading heap", err)
	}
	if err := heap.DecodeState(recs[0]); err != nil {
		return nil, corrupt("restoring heap counters", err)
	}
	if err := heap.CheckInvariants(); err != nil {
		return nil, corrupt("restoring heap", err)
	}
	heap.SetPhysicalFixups(cfg.PhysicalFixups)
	s := assemble(cfg, heap, nil)
	if err := s.decodeRun(recs[3]); err != nil {
		return nil, corrupt("restoring run accumulators", err)
	}
	// Policy and selection names encode their parameters, so a mismatch means
	// the caller is resuming under a different configuration than the run was
	// checkpointed with — the restored state would be silently wrong.
	if n := cfg.Policy.Name(); n != s.res.PolicyName {
		return nil, fmt.Errorf("sim: resume config builds policy %q but the checkpoint was taken with %q", n, s.res.PolicyName)
	}
	if n := cfg.Selection.Name(); n != s.res.SelectionName {
		return nil, fmt.Errorf("sim: resume config builds selection %q but the checkpoint was taken with %q", n, s.res.SelectionName)
	}
	if err := core.RestoreComponent(cfg.Policy, recs[1]); err != nil {
		return nil, fmt.Errorf("sim: restoring policy state: %w", err)
	}
	if err := core.RestoreComponent(cfg.Selection, recs[2]); err != nil {
		return nil, fmt.Errorf("sim: restoring selection state: %w", err)
	}
	if n := len(s.res.Collections); n > 0 {
		s.loop.Cycle.LastOverwrites = s.res.Collections[n-1].After.Overwrites
	}
	if cfg.Observer != nil {
		cfg.Observer.Observe(obs.Envelope{RunStart: s.runStart(s.step)})
		cfg.Observer.Observe(obs.Envelope{Checkpoint: &obs.CheckpointMark{Step: s.step, Op: "resume"}})
	}
	return s, nil
}

// run is a checkpoint's last record: the run's accumulators — the event
// cursor, the phase and its open summary, sums and I/O base, the garbage
// buckets — and the Result in progress (events, collection records, phase
// marks and summaries). Finish computes the rest of the Result.
type run struct {
	Step        int
	Phase       string
	PhaseAcc    *PhaseSummary // nil outside a phase
	PhaseGarb   metrics.MeanState
	PhaseIOBase storage.IOStats
	GarbBuckets []metrics.MeanState
	Result      *Result
}

// appendRun gob-encodes the run record.
func (s *Simulator) appendRun() ([]byte, error) {
	r := run{Step: s.step, Phase: s.curPhase, PhaseAcc: s.phaseAcc, PhaseGarb: s.phaseGarb.State(), PhaseIOBase: s.phaseIOBase, Result: s.res}
	for _, m := range s.garbBuckets {
		r.GarbBuckets = append(r.GarbBuckets, m.State())
	}
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(r)
	return buf.Bytes(), err
}

// decodeRun takes the run record back into s. A decoder panic on hostile
// bytes is returned as an error rather than escaping the library.
func (s *Simulator) decodeRun(b []byte) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("decoder panic: %v", p)
		}
	}()
	var r run
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&r); err != nil {
		return err
	}
	if r.Result == nil {
		return fmt.Errorf("run record holds no result")
	}
	s.step, s.curPhase, s.phaseAcc, s.phaseIOBase, s.res = r.Step, r.Phase, r.PhaseAcc, r.PhaseIOBase, r.Result
	s.phaseGarb, err = metrics.MeanFromState(r.PhaseGarb)
	for _, st := range r.GarbBuckets {
		m, merr := metrics.MeanFromState(st)
		s.garbBuckets, err = append(s.garbBuckets, m), cmp.Or(err, merr)
	}
	return err
}
