package oo7

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"odbgc/internal/trace"
)

// traceDigest is the SHA-256 of the trace's binary encoding.
func traceDigest(t *testing.T, tr *trace.Trace) string {
	t.Helper()
	h := sha256.New()
	if err := trace.WriteAll(h, tr); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// customOps drives the operations FullTrace never reaches — an update
// traversal, structural replacement interleaved with both reorganizations,
// the sparse traversal and random lookups — with document replacement on.
func customOps(t *testing.T, conn int, seed int64) *Generator {
	t.Helper()
	p := SmallPrime(conn)
	p.DocReplaceProb = 0.5
	g, err := NewGenerator(p, seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []func() error{
		g.GenDB,
		func() error { return g.T2(T2B) },
		func() error { return g.ReplaceComposites(25) },
		g.Reorg1,
		g.T6,
		func() error { return g.Q1(100) },
		g.Reorg2,
	} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// TestGoldenTraceDigests pins the generator's output byte for byte. The
// digests were taken at the commit before the oracle lost its hash maps
// (PR 18's, 6ff1dae): a change to the generator's bookkeeping must not move
// one event, one dead list or one OID.
func TestGoldenTraceDigests(t *testing.T) {
	for _, tc := range []struct {
		conn int
		seed int64
		want string
	}{
		{3, 1, "2375b9d176c698c176c85f95c76ed70f7d4df84920a0e404b82c6cdf6ddc28b0"},
		{3, 2, "e11438f007ccd8276c337833288ea7d930331cc097f3cca4e2479d1609ba0490"},
		{3, 7, "15f00377835b8331597e4a7b781f48a0c85eb06154c2dfa1f744c61c1c6aee54"},
		{6, 1, "ba5e2e5f05d3399f1ca159c2e9494e29f6f72a206abcab9403b9353b91e47ef6"},
		{9, 1, "c7d0f09e16f4a7461cbde77c69947ee6d7bf1cbd4a3275792cefbb0145bbeb1f"},
	} {
		tr, err := FullTrace(SmallPrime(tc.conn), tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		if got := traceDigest(t, tr); got != tc.want {
			t.Errorf("FullTrace(SmallPrime(%d), %d) = %s, want %s", tc.conn, tc.seed, got, tc.want)
		}
	}
	const wantCustom = "05ae34928242fd1ce42fd8f216944273644f05e80d9a76dc06eaeb6fe4269a94"
	if got := traceDigest(t, customOps(t, 3, 5).Trace()); got != wantCustom {
		t.Errorf("custom-ops trace = %s, want %s", got, wantCustom)
	}
}

// TestFullTraceAllocationBudget pins what producing a trace costs in memory:
// no allocation per event or per overwrite (177 411 allocations while scopes
// and visited sets were maps), and the events held about twice — in the
// builder's chunks and in the exactly sized result (120 MB when one slice was
// regrown under them).
func TestFullTraceAllocationBudget(t *testing.T) {
	var tr *trace.Trace
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(1, func() {
		var err error
		if tr, err = FullTrace(SmallPrime(3), 1); err != nil {
			t.Fatal(err)
		}
	})
	runtime.ReadMemStats(&after)
	// AllocsPerRun calls the function twice: one warm-up, one measured.
	bytes := (after.TotalAlloc - before.TotalAlloc) / 2
	t.Logf("FullTrace(SmallPrime(3), 1): %.0f allocations, %d bytes, %d events", allocs, bytes, tr.Len())
	if allocs > 5000 {
		t.Errorf("FullTrace made %.0f allocations, want <= 5000", allocs)
	}
	if bytes > 40<<20 {
		t.Errorf("FullTrace allocated %d bytes, want <= %d", bytes, 40<<20)
	}
	if cap(tr.Events) != len(tr.Events) {
		t.Errorf("generated trace has len %d, cap %d", len(tr.Events), cap(tr.Events))
	}
}
