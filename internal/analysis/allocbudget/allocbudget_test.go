package allocbudget

import (
	"path/filepath"
	"testing"

	"odbgc/internal/analysis"
	"odbgc/internal/analysis/analysistest"
)

func computeFixture(t *testing.T) *Budget {
	t.Helper()
	dir := filepath.Join("..", "hotpath", "testdata", "src", "hotpkg")
	pkg := analysistest.LoadPackage(t, dir, "example.com/hotpkg")
	b, err := Compute(analysis.NewModule([]*analysis.Package{pkg}))
	if err != nil {
		t.Skipf("escape facts unavailable: %v", err)
	}
	return b
}

func TestCompute(t *testing.T) {
	b := computeFixture(t)
	// process allocates on two lines (the loop literal and the hoisted
	// `once`); emit and allowed on one each; cold is not hot, consume does
	// not allocate — both absent.
	want := map[string]int{
		"example.com/hotpkg.process": 2,
		"example.com/hotpkg.emit":    1,
		"example.com/hotpkg.allowed": 1,
	}
	for fn, n := range want {
		if b.Functions[fn] != n {
			t.Errorf("Functions[%s] = %d, want %d", fn, b.Functions[fn], n)
		}
	}
	for _, absent := range []string{"example.com/hotpkg.cold", "example.com/hotpkg.consume"} {
		if _, ok := b.Functions[absent]; ok {
			t.Errorf("%s budgeted but should be absent", absent)
		}
	}
}

func TestDiffAndRoundtrip(t *testing.T) {
	b := computeFixture(t)

	if regs := Diff(b, b); len(regs) != 0 {
		t.Fatalf("self-diff reported regressions: %v", regs)
	}

	// Tightening a recorded count turns the current state into a
	// regression; a function missing from the record is budget zero.
	tight := &Budget{Version: Version, Functions: map[string]int{}}
	for fn, n := range b.Functions {
		tight.Functions[fn] = n
	}
	tight.Functions["example.com/hotpkg.emit"] = 0
	delete(tight.Functions, "example.com/hotpkg.process")
	regs := Diff(tight, b)
	if len(regs) != 2 {
		t.Fatalf("got %d regressions, want 2: %v", len(regs), regs)
	}
	if regs[0].Func != "example.com/hotpkg.emit" || regs[0].New != 1 || regs[0].Old != 0 {
		t.Errorf("unexpected regression %+v", regs[0])
	}
	if regs[1].Func != "example.com/hotpkg.process" || regs[1].Old != 0 || regs[1].New != 2 {
		t.Errorf("unexpected regression %+v", regs[1])
	}

	// Growth in the record (a fixed allocation) is never a regression.
	loose := &Budget{Version: Version, Functions: map[string]int{"example.com/hotpkg.gone": 9}}
	for fn, n := range b.Functions {
		loose.Functions[fn] = n + 1
	}
	if regs := Diff(loose, b); len(regs) != 0 {
		t.Errorf("shrinkage reported as regression: %v", regs)
	}

	path := filepath.Join(t.TempDir(), "allocbudget.json")
	if err := b.Write(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Functions) != len(b.Functions) {
		t.Fatalf("roundtrip lost functions: %d vs %d", len(back.Functions), len(b.Functions))
	}
	for fn, n := range b.Functions {
		if back.Functions[fn] != n {
			t.Errorf("roundtrip Functions[%s] = %d, want %d", fn, back.Functions[fn], n)
		}
	}
}
