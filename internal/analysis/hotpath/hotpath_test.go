package hotpath

import (
	"go/types"
	"path/filepath"
	"testing"

	"odbgc/internal/analysis"
	"odbgc/internal/analysis/analysistest"
)

// fn resolves a fixture function by name ("helper") or method ("Sim.Step").
func fn(t *testing.T, pkg *analysis.Package, name string) *types.Func {
	t.Helper()
	for ident, obj := range pkg.Info.Defs {
		f, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		if funcName(f) == name || ident.Name == name {
			return f
		}
	}
	t.Fatalf("fixture function %q not found", name)
	return nil
}

func TestBenchmarkSeedAndLoopHot(t *testing.T) {
	dir := filepath.Join("testdata", "src", "hotpkg")
	pkg := analysistest.LoadPackage(t, dir, "example.com/hotpkg")
	mod := analysis.NewModule([]*analysis.Package{pkg})
	r := For(mod)

	for _, name := range []string{"BenchmarkProcess", "process", "emit", "consume", "allowed", "failing"} {
		if !r.Hot(fn(t, pkg, name)) {
			t.Errorf("%s not hot", name)
		}
	}
	if r.Hot(fn(t, pkg, "cold")) {
		t.Error("cold marked hot")
	}
	// errOnly is called from process's hot loop, but only inside the body of
	// an `err != nil` check: the closure must not propagate hotness through
	// the cold call site.
	if r.Hot(fn(t, pkg, "errOnly")) {
		t.Error("errOnly hot despite being reachable only through an error path")
	}

	// The b.N loop is harness, not workload: process is measured once per
	// sample, so it is hot but not loop-hot; emit, called from process's
	// own loop, is.
	if r.LoopHot(fn(t, pkg, "process")) {
		t.Error("process loop-hot through the b.N harness loop")
	}
	if !r.LoopHot(fn(t, pkg, "emit")) {
		t.Error("emit not loop-hot despite being called from process's loop")
	}
	if r.LoopHot(fn(t, pkg, "allowed")) {
		t.Error("allowed loop-hot despite being called outside process's loops")
	}

	if got, want := r.Chain(fn(t, pkg, "emit")), "BenchmarkProcess -> process -> emit"; got != want {
		t.Errorf("Chain(emit) = %q, want %q", got, want)
	}
	if got, want := r.Why(fn(t, pkg, "emit")), "benchmark BenchmarkProcess"; got != want {
		t.Errorf("Why(emit) = %q, want %q", got, want)
	}
	if r.Chain(fn(t, pkg, "cold")) != "" {
		t.Error("Chain(cold) nonempty")
	}

	// Memoized per module.
	if For(mod) != r {
		t.Error("For rebuilt the region instead of hitting the module memo")
	}
}

func TestCuratedRootSeed(t *testing.T) {
	dir := filepath.Join("testdata", "src", "simroot")
	pkg := analysistest.LoadPackage(t, dir, "example.com/internal/sim")
	r := For(analysis.NewModule([]*analysis.Package{pkg}))

	step := fn(t, pkg, "Sim.Step")
	if !r.Hot(step) {
		t.Fatal("Sim.Step not hot despite the curated internal/sim root table")
	}
	if got, want := r.Why(step), "hot root Sim.Step"; got != want {
		t.Errorf("Why(Step) = %q, want %q", got, want)
	}
	if !r.Hot(fn(t, pkg, "Sim.helper")) {
		t.Error("helper not hot transitively from Step")
	}
	if !r.LoopHot(fn(t, pkg, "Sim.helper")) {
		t.Error("helper not loop-hot despite being called from Step's loop")
	}
	if r.Hot(fn(t, pkg, "Sim.setup")) {
		t.Error("setup marked hot")
	}
}

func TestUnboundedLoopSeed(t *testing.T) {
	dir := filepath.Join("testdata", "src", "obsloop")
	pkg := analysistest.LoadPackage(t, dir, "example.com/internal/obs")
	r := For(analysis.NewModule([]*analysis.Package{pkg}))

	pump := fn(t, pkg, "queue.pump")
	if !r.Hot(pump) {
		t.Fatal("pump not hot despite its unbounded loop in a hot package")
	}
	if got, want := r.Why(pump), "unbounded loop in queue.pump"; got != want {
		t.Errorf("Why(pump) = %q, want %q", got, want)
	}
	if !r.LoopHot(fn(t, pkg, "queue.consume")) {
		t.Error("consume not loop-hot from pump's loop")
	}
	if r.Hot(fn(t, pkg, "queue.report")) {
		t.Error("report marked hot")
	}
}

// TestUncoveredPackageStaysCold pins that the same shapes outside the hot
// package list seed nothing.
func TestUncoveredPackageStaysCold(t *testing.T) {
	dir := filepath.Join("testdata", "src", "obsloop")
	pkg := analysistest.LoadPackage(t, dir, "example.com/util")
	r := For(analysis.NewModule([]*analysis.Package{pkg}))
	for _, name := range []string{"queue.pump", "queue.consume", "queue.report"} {
		if r.Hot(fn(t, pkg, name)) {
			t.Errorf("%s hot in an uncovered package", name)
		}
	}
}
