package gc

import (
	"testing"
)

// TestOraclelessCollectReclaims exercises the live-serving mode: no
// RecordOracleDead calls, yet Collect reclaims whatever tracing finds and
// the cumulative ledger stays consistent (created == collected, outstanding
// oracle garbage zero).
func TestOraclelessCollectReclaims(t *testing.T) {
	h := testHeap(t)
	h.SetOracleless(true)
	mk(t, h, 1, 100, 1) // root
	mk(t, h, 2, 100, 0) // reachable from 1
	mk(t, h, 3, 100, 0) // garbage after unlink — never declared to an oracle
	root(t, h, 1)
	link(t, h, 1, 0, 3)
	unlink(t, h, 1, 0, 3)
	link(t, h, 1, 0, 2)

	res, err := h.Collect(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReclaimedObjects != 1 || res.ReclaimedBytes != 100 {
		t.Fatalf("reclaimed %d objects / %d bytes, want 1 / 100", res.ReclaimedObjects, res.ReclaimedBytes)
	}
	if h.Store().Get(3) != nil {
		t.Error("object 3 survived an oracleless collection")
	}
	if got := h.TotalGarbageBytes(); got != 100 {
		t.Errorf("TotalGarbageBytes = %d, want 100 (accounted at reclaim time)", got)
	}
	if got := h.TotalCollectedBytes(); got != 100 {
		t.Errorf("TotalCollectedBytes = %d, want 100", got)
	}
	if got := h.ActualGarbageBytes(); got != 0 {
		t.Errorf("ActualGarbageBytes = %d, want 0 (live mode has no oracle)", got)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Errorf("invariants after oracleless collect: %v", err)
	}
	if err := h.CheckOracleComplete(); err != nil {
		t.Errorf("CheckOracleComplete should pass vacuously in live mode: %v", err)
	}
}

// TestOraclelessSnapshotRoundTrip: a live heap's checkpoint image restores to a
// heap that, put back into live mode, keeps collecting without oracle
// annotations. The mode is not in the image: the server sets it on every heap
// it builds, as the simulator never does.
func TestOraclelessSnapshotRoundTrip(t *testing.T) {
	h := testHeap(t)
	h.SetOracleless(true)
	mk(t, h, 1, 100, 1)
	mk(t, h, 2, 100, 0)
	root(t, h, 1)
	link(t, h, 1, 0, 2)
	unlink(t, h, 1, 0, 2)

	h2 := twin(t, h)
	h2.SetOracleless(true)
	res, err := h2.Collect(0)
	if err != nil {
		t.Fatalf("restored live heap refused to collect: %v", err)
	}
	if res.ReclaimedObjects != 1 {
		t.Errorf("reclaimed %d objects, want 1", res.ReclaimedObjects)
	}
	if err := h2.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestOracleModeStillRefusesUndeclared pins that the default (trace replay)
// mode kept its conservative cross-check after the live-mode change.
func TestOracleModeStillRefusesUndeclared(t *testing.T) {
	h := testHeap(t)
	mk(t, h, 1, 100, 1)
	mk(t, h, 2, 100, 0)
	root(t, h, 1)
	link(t, h, 1, 0, 2)
	unlink(t, h, 1, 0, 2)
	// No RecordOracleDead: replay mode must refuse to reclaim object 2.
	if _, err := h.Collect(0); err == nil {
		t.Fatal("oracle mode reclaimed undeclared garbage without error")
	}
}
