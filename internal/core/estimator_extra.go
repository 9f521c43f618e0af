package core

// Additional garbage estimators beyond the two the paper details. §2.4
// notes "we have invented and investigated several such heuristics, two of
// which we describe below"; these fill in two more cells of the paper's
// state × behavior design space:
//
//   - FGSWindow: fine-grain state with a sliding-window mean behavior
//     metric instead of the exponential mean (a different realization of
//     "history behavior");
//   - FGSPerPartition: fine-grain state with *per-partition* behavior —
//     each partition remembers the garbage-per-overwrite its own last
//     collection exhibited, so partitions with systematically different
//     garbage densities (e.g. document-heavy vs connection-heavy regions)
//     no longer share one global GPPO.

import (
	"fmt"

	"odbgc/internal/gc"
	"odbgc/internal/storage"
)

// FGSWindow combines fine-grain state (Σ PO(p)) with a sliding-window mean
// of the garbage-per-pointer-overwrite samples from the last Window
// collections.
type FGSWindow struct {
	// Window is the number of recent collections whose GPPO samples are
	// averaged. Must be >= 1.
	Window int

	st fgsWindowState
}

// NewFGSWindow returns a windowed FGS estimator.
func NewFGSWindow(window int) (*FGSWindow, error) {
	if window < 1 {
		return nil, fmt.Errorf("core: FGS window %d must be >= 1", window)
	}
	return &FGSWindow{Window: window}, nil
}

// Name implements Estimator.
func (e *FGSWindow) Name() string { return fmt.Sprintf("fgs-window(%d)", e.Window) }

// GPPO returns the current windowed garbage-per-overwrite estimate.
func (e *FGSWindow) GPPO() float64 {
	if len(e.st.Samples) == 0 {
		return 0
	}
	var sum float64
	for _, s := range e.st.Samples {
		sum += s
	}
	return sum / float64(len(e.st.Samples))
}

// ObserveCollection implements Estimator.
func (e *FGSWindow) ObserveCollection(_ HeapState, res gc.CollectionResult) {
	po := res.PartitionPO
	if po < 1 {
		po = 1
	}
	e.st.Samples = append(e.st.Samples, float64(res.ReclaimedBytes)/float64(po))
	if len(e.st.Samples) > e.Window {
		e.st.Samples = e.st.Samples[1:]
	}
}

// EstimateGarbage implements Estimator.
func (e *FGSWindow) EstimateGarbage(h HeapState) float64 {
	return e.GPPO() * float64(h.SumPartitionOverwrites())
}

// PartitionedHeapState extends HeapState with per-partition fine-grain
// state, needed by FGSPerPartition. *gc.Heap implements it.
type PartitionedHeapState interface {
	HeapState
	PartitionOverwrites(p storage.PartitionID) int
}

// FGSPerPartition predicts garbage as
//
//	ActGarb = Σ_p gppo_h(p) · PO(p)
//
// where gppo_h(p) is an exponential mean of partition p's own collection
// outcomes, falling back to the global mean for partitions never collected.
// It needs PartitionedHeapState; with a plain HeapState it degrades to the
// global FGS/HB estimate.
type FGSPerPartition struct {
	// History is the exponential-mean factor, as in FGS/HB.
	History float64

	perPart map[storage.PartitionID]float64
	global  FGSHB
}

// NewFGSPerPartition returns a per-partition FGS estimator.
func NewFGSPerPartition(history float64) (*FGSPerPartition, error) {
	if history < 0 || history >= 1 {
		return nil, fmt.Errorf("core: FGS per-partition history %.4f must be in [0,1)", history)
	}
	return &FGSPerPartition{
		History: history,
		perPart: make(map[storage.PartitionID]float64),
		global:  FGSHB{History: history},
	}, nil
}

// Name implements Estimator.
func (e *FGSPerPartition) Name() string { return fmt.Sprintf("fgs-pp(%.2f)", e.History) }

// ObserveCollection implements Estimator.
func (e *FGSPerPartition) ObserveCollection(h HeapState, res gc.CollectionResult) {
	e.global.ObserveCollection(h, res)
	po := res.PartitionPO
	if po < 1 {
		po = 1
	}
	gppo := float64(res.ReclaimedBytes) / float64(po)
	if prev, ok := e.perPart[res.Partition]; ok {
		e.perPart[res.Partition] = e.History*prev + (1-e.History)*gppo
	} else {
		e.perPart[res.Partition] = gppo
	}
}

// EstimateGarbage implements Estimator.
func (e *FGSPerPartition) EstimateGarbage(h HeapState) float64 {
	ph, ok := h.(PartitionedHeapState)
	if !ok {
		return e.global.EstimateGarbage(h)
	}
	globalGPPO := e.global.GPPO()
	var est float64
	for p := 0; p < h.NumPartitions(); p++ {
		id := storage.PartitionID(p)
		po := ph.PartitionOverwrites(id)
		if po == 0 {
			continue
		}
		gppo, ok := e.perPart[id]
		if !ok {
			gppo = globalGPPO
		}
		est += gppo * float64(po)
	}
	return est
}
