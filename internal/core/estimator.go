package core

import (
	"fmt"

	"odbgc/internal/gc"
)

// Estimator estimates the amount of garbage currently in the database, the
// quantity the SAGA policy regulates. Determining it exactly would require
// scanning the whole database, so practical estimators combine cheap state
// (partition counts, per-partition overwrite counters) with collector
// behavior (bytes reclaimed per collection), per §2.4 of the paper.
type Estimator interface {
	Name() string
	// ObserveCollection is called after every collection with its result,
	// letting the estimator update its behavior metrics.
	ObserveCollection(h HeapState, res gc.CollectionResult)
	// EstimateGarbage returns the estimated garbage bytes in the database.
	EstimateGarbage(h HeapState) float64
}

// OracleEstimator knows exactly how much garbage exists — the
// impractical-to-implement baseline the paper uses to validate the SAGA
// control algorithm independent of estimator quality.
type OracleEstimator struct{}

// Name implements Estimator.
func (OracleEstimator) Name() string { return "oracle" }

// ObserveCollection implements Estimator.
func (OracleEstimator) ObserveCollection(HeapState, gc.CollectionResult) {}

// EstimateGarbage implements Estimator.
func (OracleEstimator) EstimateGarbage(h HeapState) float64 {
	return float64(h.ActualGarbageBytes())
}

// CGSCB is the coarse-grain-state / current-behavior heuristic (§2.4.1):
//
//	ActGarb = C · p
//
// with C the bytes reclaimed by the last collection and p the number of
// allocated partitions. It assumes the last collected partition is
// representative of all partitions — an assumption UPDATEDPOINTER selection
// deliberately violates by finding partitions with above-average garbage,
// which is why this estimator overestimates (Figure 6a).
type CGSCB struct {
	st cgscbState
}

// NewCGSCB returns a fresh CGS/CB estimator.
func NewCGSCB() *CGSCB { return &CGSCB{} }

// Name implements Estimator.
func (*CGSCB) Name() string { return "cgs-cb" }

// ObserveCollection implements Estimator.
func (e *CGSCB) ObserveCollection(_ HeapState, res gc.CollectionResult) {
	e.st.LastReclaimed = float64(res.ReclaimedBytes)
}

// EstimateGarbage implements Estimator.
func (e *CGSCB) EstimateGarbage(h HeapState) float64 {
	return e.st.LastReclaimed * float64(h.NumPartitions())
}

// FGSHB is the fine-grain-state / history-behavior heuristic (§2.4.2). The
// behavior metric is garbage reclaimed per pointer overwrite (GPPO),
// smoothed by an exponential mean with history factor h:
//
//	GPPO_h = h·GPPO_h + (1−h)·GPPO
//
// and combined with the fine-grain state — per-partition overwrite
// counters — to predict
//
//	ActGarb = GPPO_h · Σ_p PO(p).
//
// Setting History to 0 degenerates to FGS/CB (current behavior only).
type FGSHB struct {
	// History is the paper's h factor in [0,1). The paper studies 0.50,
	// 0.80 and 0.95 (Figure 7a) and uses 0.80 in practice.
	History float64

	st fgshbState
}

// NewFGSHB returns an FGS/HB estimator with the given history factor.
func NewFGSHB(history float64) (*FGSHB, error) {
	if history < 0 || history >= 1 {
		return nil, fmt.Errorf("core: FGS/HB history %.4f must be in [0,1)", history)
	}
	return &FGSHB{History: history}, nil
}

// Name implements Estimator.
func (e *FGSHB) Name() string { return fmt.Sprintf("fgs-hb(%.2f)", e.History) }

// GPPO returns the current smoothed garbage-per-pointer-overwrite estimate.
func (e *FGSHB) GPPO() float64 { return e.st.GppoH }

// ObserveCollection implements Estimator.
func (e *FGSHB) ObserveCollection(_ HeapState, res gc.CollectionResult) {
	po := res.PartitionPO
	if po < 1 {
		po = 1 // a collection with no recorded overwrites still yields a sample
	}
	gppo := float64(res.ReclaimedBytes) / float64(po)
	if e.st.HaveObs {
		e.st.GppoH = e.History*e.st.GppoH + (1-e.History)*gppo
	} else {
		e.st.GppoH = gppo
		e.st.HaveObs = true
	}
}

// EstimateGarbage implements Estimator.
func (e *FGSHB) EstimateGarbage(h HeapState) float64 {
	return e.st.GppoH * float64(h.SumPartitionOverwrites())
}

// NewEstimator constructs an estimator by name: "oracle", "cgs-cb",
// "fgs-hb", "fgs-window", "fgs-pp", or "fallback" (FGS/HB degrading to
// CGS/CB on signal dropout). The history parameter is the exponential-mean
// factor for fgs-hb/fgs-pp/fallback (0 means the paper's 0.8) and the window
// length for fgs-window (0 means 8).
func NewEstimator(name string, history float64) (Estimator, error) {
	switch name {
	case "oracle":
		return OracleEstimator{}, nil
	case "fallback":
		if history == 0 {
			history = 0.8
		}
		primary, err := NewFGSHB(history)
		if err != nil {
			return nil, err
		}
		return NewFallbackEstimator(primary, NewCGSCB(), 0, 0)
	case "cgs-cb":
		return NewCGSCB(), nil
	case "fgs-hb", "":
		if history == 0 {
			history = 0.8
		}
		return NewFGSHB(history)
	case "fgs-window":
		n := int(history)
		if n == 0 {
			n = 8
		}
		return NewFGSWindow(n)
	case "fgs-pp":
		if history == 0 {
			history = 0.8
		}
		return NewFGSPerPartition(history)
	default:
		return nil, fmt.Errorf("core: unknown estimator %q", name)
	}
}
