package fault

import "fmt"

// InjectorStats counts what the injector has done.
type InjectorStats struct {
	Ops      uint64 // operations inspected
	Injected uint64 // faults returned
	Bursts   uint64 // bursts started
}

// Injector produces deterministic transient storage faults. It satisfies the
// storage.FaultInjector contract structurally: BeforeOp is called at the
// entry of every storage operation, before any state mutates, so a returned
// fault aborts the operation cleanly and a retry is safe.
type Injector struct {
	profile Profile
	st      InjectorState
	hook    func(op string, seq uint64, burst bool)
}

// InjectorState is the Injector's complete mutable state, exported so
// checkpoints can capture it and a resumed run replays the identical fault
// stream.
type InjectorState struct {
	RNG       rng
	BurstLeft int // operations still to fail in the current burst
	Stats     InjectorStats
}

// SetHook installs a callback fired on every injected fault (after the
// stats update, before the error returns). The hook observes only — it is
// not part of the injector's checkpointable state, so observers must be
// reinstalled after Restore. A nil hook removes it.
func (in *Injector) SetHook(hook func(op string, seq uint64, burst bool)) { in.hook = hook }

// fire reports one injected fault to the hook, if any.
func (in *Injector) fire(op string, burst bool) {
	if in.hook != nil {
		in.hook(op, in.st.Stats.Ops, burst)
	}
}

// NewInjector builds an injector for the profile's storage-fault rates,
// seeded so the fault schedule is reproducible.
func NewInjector(profile Profile, seed int64) *Injector {
	return &Injector{profile: profile, st: InjectorState{RNG: newRNG(seed)}}
}

// BeforeOp implements the storage.FaultInjector contract.
func (in *Injector) BeforeOp(write bool) error {
	in.st.Stats.Ops++
	op := "read"
	prob := in.profile.ReadErrProb
	if write {
		op = "write"
		prob = in.profile.WriteErrProb
	}

	// An active burst fails every operation regardless of kind.
	if in.st.BurstLeft > 0 {
		in.st.BurstLeft--
		in.st.Stats.Injected++
		in.fire(op, true)
		return &TransientError{Op: op, Seq: in.st.Stats.Ops, Burst: true}
	}
	if in.profile.BurstProb > 0 && in.st.RNG.float64() < in.profile.BurstProb {
		in.st.Stats.Bursts++
		in.st.Stats.Injected++
		if in.profile.BurstLen > 1 {
			in.st.BurstLeft = in.profile.BurstLen - 1
		}
		in.fire(op, true)
		return &TransientError{Op: op, Seq: in.st.Stats.Ops, Burst: true}
	}
	if prob > 0 && in.st.RNG.float64() < prob {
		in.st.Stats.Injected++
		in.fire(op, false)
		return &TransientError{Op: op, Seq: in.st.Stats.Ops}
	}
	return nil
}

// Stats returns a copy of the injector's counters.
func (in *Injector) Stats() InjectorStats { return in.st.Stats }

// Snapshot captures the injector's state.
func (in *Injector) Snapshot() InjectorState { return in.st }

// Restore rewinds the injector to a previously captured state.
func (in *Injector) Restore(st InjectorState) error {
	if st.BurstLeft < 0 {
		return fmt.Errorf("fault: negative burstLeft %d in injector state", st.BurstLeft)
	}
	in.st = st
	return nil
}
