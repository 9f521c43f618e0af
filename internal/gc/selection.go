package gc

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"

	"odbgc/internal/storage"
)

// SelectionPolicy decides which partition a collection should process.
// Select returns false when no partition is worth collecting (e.g. no
// overwrites have been observed anywhere), in which case the simulator
// skips the collection.
type SelectionPolicy interface {
	Name() string
	Select(h *Heap) (storage.PartitionID, bool)
}

// UpdatedPointer is the paper's partition-selection policy (CWZ94): collect
// the partition with the largest count of overwritten pointers into it
// since its last collection. It is effective at finding partitions with
// more than average garbage, which is why the CGS/CB estimator
// overestimates (§4.1.2).
type UpdatedPointer struct{}

// Name implements SelectionPolicy.
func (UpdatedPointer) Name() string { return "updated-pointer" }

// Select implements SelectionPolicy.
func (UpdatedPointer) Select(h *Heap) (storage.PartitionID, bool) {
	best := storage.PartitionID(-1)
	bestPO := 0
	for p := 0; p < h.disk.NumPartitions(); p++ {
		id := storage.PartitionID(p)
		if po := h.PartitionOverwrites(id); po > bestPO {
			best, bestPO = id, po
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

// RandomSelection picks a uniformly random allocated partition. The paper
// mentions it as the selection policy under which CGS/CB would estimate
// accurately.
type RandomSelection struct {
	seed int64
	st   randomState
	rng  *rand.Rand
}

// NewRandomSelection returns a seeded random selection policy.
func NewRandomSelection(seed int64) *RandomSelection {
	s := &RandomSelection{seed: seed}
	s.rewind(0)
	return s
}

// rewind reseeds the generator and draws it forward to the given number of
// steps, where its sequence stood when a snapshot recorded them.
func (s *RandomSelection) rewind(draws uint64) {
	s.st = randomState{}
	s.rng = rand.New(drawCounter{rand.NewSource(s.seed), &s.st})
	for s.st.Draws < draws {
		s.rng.Int63()
	}
}

// drawCounter is the rand.Source a RandomSelection draws through; it counts
// every generator step in the selection's state.
type drawCounter struct {
	rand.Source
	st *randomState
}

func (c drawCounter) Int63() int64 {
	c.st.Draws++
	return c.Source.Int63()
}

// Name implements SelectionPolicy.
func (*RandomSelection) Name() string { return "random" }

// Select implements SelectionPolicy.
func (s *RandomSelection) Select(h *Heap) (storage.PartitionID, bool) {
	n := h.disk.NumPartitions()
	if n == 0 {
		return 0, false
	}
	return storage.PartitionID(s.rng.Intn(n)), true
}

// RoundRobin cycles through partitions in order, a baseline that spreads
// collection effort uniformly.
type RoundRobin struct {
	st roundRobinState
}

// Name implements SelectionPolicy.
func (*RoundRobin) Name() string { return "round-robin" }

// Select implements SelectionPolicy.
func (s *RoundRobin) Select(h *Heap) (p storage.PartitionID, ok bool) {
	p, s.st.Next, ok = inOrder(s.st.Next, h.disk.NumPartitions())
	return p, ok
}

// inOrder is one round-robin step over n partitions from the cursor next:
// the partition picked and the cursor after it.
func inOrder(next storage.PartitionID, n int) (pick, after storage.PartitionID, ok bool) {
	if n == 0 {
		return 0, next, false
	}
	if int(next) >= n {
		next = 0
	}
	return next, next + 1, true
}

// OracleSelection collects the partition with the most actual garbage. It
// is impractical in a real system (requires exact garbage knowledge) and
// serves as an upper bound for selection quality in ablations.
type OracleSelection struct{}

// Name implements SelectionPolicy.
func (OracleSelection) Name() string { return "oracle-max-garbage" }

// Select implements SelectionPolicy.
func (OracleSelection) Select(h *Heap) (storage.PartitionID, bool) {
	best := storage.PartitionID(-1)
	bestGarb := 0
	for p := 0; p < h.disk.NumPartitions(); p++ {
		id := storage.PartitionID(p)
		if g := h.OracleGarbageIn(id); g > bestGarb {
			best, bestGarb = id, g
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

// Hybrid prefers UPDATEDPOINTER but falls back to a round-robin sweep when
// greedy picks stop paying: if the last greedy collection yielded less
// than MinYield bytes, the next selections sweep partitions in order until
// one yields again. This repairs the FIFO-log livelock (greedy policies
// re-collect a pinned partition at zero yield forever; see
// workload.QueueParams) while preserving greedy behavior whenever it works.
//
// Hybrid needs yield feedback: the simulator reports each collection via
// ObserveCollection.
type Hybrid struct {
	// MinYield is the bytes a greedy collection must reclaim for greedy
	// mode to continue. Defaults to 1 (any yield at all) if zero.
	MinYield int

	st hybridState
}

// Name implements SelectionPolicy.
func (h *Hybrid) Name() string { return "hybrid" }

// Select implements SelectionPolicy.
func (h *Hybrid) Select(heap *Heap) (p storage.PartitionID, ok bool) {
	if h.st.Sweeping {
		p, h.st.Sweep, ok = inOrder(h.st.Sweep, heap.disk.NumPartitions())
	} else {
		p, ok = UpdatedPointer{}.Select(heap)
	}
	h.st.LastPick, h.st.HavePick = p, ok
	return p, ok
}

// ObserveCollection feeds back the yield of the last selected collection.
func (h *Hybrid) ObserveCollection(res CollectionResult) {
	if !h.st.HavePick || res.Partition != h.st.LastPick {
		return
	}
	min := h.MinYield
	if min <= 0 {
		min = 1
	}
	h.st.Sweeping = res.ReclaimedBytes < min
}

// YieldObserver is implemented by selection policies that adapt to
// collection outcomes; the simulator feeds them every collection result.
type YieldObserver interface {
	ObserveCollection(res CollectionResult)
}

// NewSelectionPolicy constructs a selection policy by name. Seed is used by
// stochastic policies only.
func NewSelectionPolicy(name string, seed int64) (SelectionPolicy, error) {
	switch name {
	case "updated-pointer", "":
		return UpdatedPointer{}, nil
	case "random":
		return NewRandomSelection(seed), nil
	case "round-robin":
		return &RoundRobin{}, nil
	case "oracle-max-garbage":
		return OracleSelection{}, nil
	case "hybrid":
		return &Hybrid{}, nil
	default:
		return nil, fmt.Errorf("gc: unknown selection policy %q", name)
	}
}

// The stateful selection policies keep their mutable fields in the state
// structs below and implement core.Snapshotter structurally (gc cannot import
// core), so a snapshot carries where a sweep or a random sequence stood.

// roundRobinState is RoundRobin's mutable state.
type roundRobinState struct {
	Next storage.PartitionID // the cursor: the next partition to pick
}

// hybridState is Hybrid's mutable state.
type hybridState struct {
	Sweeping bool                // greedy picks stopped paying: sweep in order
	Sweep    storage.PartitionID // the sweep's round-robin cursor
	LastPick storage.PartitionID
	HavePick bool
}

// randomState is RandomSelection's mutable state: the seed is configuration,
// so the steps drawn since seeding say where the sequence stands.
type randomState struct {
	Draws uint64
}

func encodeState(st any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decodeState replaces *st with what data decodes to, only if it decodes.
func decodeState[T any](data []byte, st *T) error {
	var next T
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&next); err != nil {
		return err
	}
	*st = next
	return nil
}

// SnapshotState implements core.Snapshotter.
func (s *RoundRobin) SnapshotState() ([]byte, error) { return encodeState(s.st) }

// RestoreState implements core.Snapshotter.
func (s *RoundRobin) RestoreState(data []byte) error { return decodeState(data, &s.st) }

// SnapshotState implements core.Snapshotter.
func (h *Hybrid) SnapshotState() ([]byte, error) { return encodeState(h.st) }

// RestoreState implements core.Snapshotter.
func (h *Hybrid) RestoreState(data []byte) error { return decodeState(data, &h.st) }

// SnapshotState implements core.Snapshotter.
func (s *RandomSelection) SnapshotState() ([]byte, error) { return encodeState(s.st) }

// RestoreState implements core.Snapshotter: it reseeds the generator and
// replays the recorded number of steps, so the sequence continues exactly.
func (s *RandomSelection) RestoreState(data []byte) error {
	var st randomState
	if err := decodeState(data, &st); err != nil {
		return err
	}
	s.rewind(st.Draws)
	return nil
}
