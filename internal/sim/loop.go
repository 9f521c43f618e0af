package sim

import (
	"fmt"

	"odbgc/internal/core"
	"odbgc/internal/objstore"
	"odbgc/internal/obs"
	"odbgc/internal/trace"
)

// progressEvery is how many steps apart Loop.Heartbeat reports an
// obs.Progress.
const progressEvery = 1000

// Loop is the control loop both drivers run: the one mapping of trace events
// onto the heap, the collect-safe rule, and the one turn of core.Cycle that
// reports as the decision and collection events. The server engine steps the
// events a replay of each request would hold, so the same ops make the same
// collections in both.
type Loop struct {
	Cycle core.Cycle
	// Observer receives what Collect reports (nil for none).
	Observer obs.Observer

	midBuild    bool           // the last event built (trace.Event.Builds)
	deadScratch []objstore.OID // reused for RecordOracleDead, which copies it
}

// Apply maps one event onto the heap; phase and idle events are the driver's.
// The collect-safe state follows the event, whether the heap takes it or not.
func (l *Loop) Apply(e *trace.Event) error {
	h := l.Cycle.Heap
	l.midBuild = e.Builds()
	switch e.Kind {
	case trace.KindCreate:
		return h.Create(e.OID, e.Class, e.Size, e.Slots)
	case trace.KindAccess:
		return h.Access(e.OID)
	case trace.KindUpdate:
		return h.Update(e.OID)
	case trace.KindOverwrite:
		if err := h.Overwrite(e.OID, e.Slot, e.Old, e.New, e.Init); err != nil || len(e.DeadObjects()) == 0 {
			return err
		}
		dead := l.deadScratch[:0]
		for _, d := range e.DeadObjects() {
			dead = append(dead, d.OID)
		}
		l.deadScratch = dead
		return h.RecordOracleDead(dead)
	case trace.KindRoot:
		if e.Size == 1 {
			return h.AddRoot(e.OID)
		}
		return h.RemoveRoot(e.OID)
	case trace.KindPhase, trace.KindIdle:
		return nil
	}
	return fmt.Errorf("unknown event kind %d", e.Kind)
}

// Due reports whether the rate policy wants a collection now. It is never
// asked right after an event that builds.
func (l *Loop) Due() bool { return !l.midBuild && l.Cycle.Due() }

// Collect takes one turn of the control loop and reports it: the decision
// event, and for a collection the collection event. step and phase are the
// driver's position, and the record carries phase; idle marks a turn at a
// quiescence tick. A failed turn reports nothing.
func (l *Loop) Collect(step int, phase string, idle bool) (core.Collection, error) {
	c, err := l.Cycle.Run()
	c.Phase = phase
	if err != nil || l.Observer == nil {
		return c, err
	}
	d := obs.DecisionOf(c, step, idle)
	l.Observer.Observe(obs.Envelope{Decision: &d})
	if c.Collected {
		col := obs.CollectionOf(c, step)
		l.Observer.Observe(obs.Envelope{Collection: &col})
	}
	return c, nil
}

// Heartbeat reports an obs.Progress every progressEvery steps, so a live
// consumer tracks a run between collections: step is the driver's position
// after its latest event or request. It inlines; progress is the rare send.
func (l *Loop) Heartbeat(step, collections int, phase string) {
	if l.Observer != nil && step%progressEvery == 0 {
		l.progress(step, collections, phase)
	}
}

func (l *Loop) progress(step, collections int, phase string) {
	l.Observer.Observe(obs.Envelope{Progress: &obs.Progress{Step: step, Collections: collections, Phase: phase, Clock: l.Cycle.Clock()}})
}
