package escape

import (
	"go/token"
	"path/filepath"
	"testing"

	"odbgc/internal/analysis"
	"odbgc/internal/analysis/analysistest"
)

const canned = `# example/pkg
pkg.go:10:6: cannot inline Grow: function too complex: cost 154 exceeds budget 80
pkg.go:12:13: make([]int, n) escapes to heap:
  flow: {heap} = &{storage for make([]int, n)}:
    from make([]int, n) (spill) at pkg.go:12:13
pkg.go:15:2: moved to heap: buf
pkg.go:20:10: &Event{...} does not escape
pkg.go:22:14: ... argument does not escape
pkg.go:25:9: inlining call to helper
pkg.go:27:6: can inline helper with cost 3 as: func() int { return 1 }
not a position line
pkg.go:bad:1: skipped
`

func TestParse(t *testing.T) {
	f := Parse(canned, "/mod/example")
	if !f.Available {
		t.Fatal("parsed table not Available")
	}
	if got, want := len(f.All()), 7; got != want {
		t.Fatalf("parsed %d facts, want %d: %+v", got, want, f.All())
	}
	file := canonFile("/mod/example/pkg.go")

	kindAt := func(line int) []Kind {
		var ks []Kind
		for _, fact := range f.AtLine(token.Position{Filename: file, Line: line}) {
			ks = append(ks, fact.Kind)
		}
		return ks
	}
	cases := []struct {
		line int
		want Kind
	}{
		{10, CannotInline},
		{12, EscapesToHeap},
		{15, MovedToHeap},
		{20, DoesNotEscape},
		{22, DoesNotEscape},
		{25, InliningCall},
		{27, CanInline},
	}
	for _, c := range cases {
		ks := kindAt(c.line)
		if len(ks) != 1 || ks[0] != c.want {
			t.Errorf("line %d: got kinds %v, want [%v]", c.line, ks, c.want)
		}
	}

	// The flow-explanation continuation lines must not become facts.
	if got := f.AtLine(token.Position{Filename: file, Line: 13}); len(got) != 0 {
		t.Errorf("flow continuation line produced facts: %+v", got)
	}

	if _, ok := f.HeapEscapeAt(token.Position{Filename: file, Line: 12}); !ok {
		t.Error("no heap escape reported at line 12")
	}
	if _, ok := f.HeapEscapeAt(token.Position{Filename: file, Line: 20}); ok {
		t.Error("does-not-escape line 20 misreported as heap escape")
	}
	if !f.ProvedStackAt(token.Position{Filename: file, Line: 20}) {
		t.Error("line 20 not proved stack-safe")
	}
	if f.ProvedStackAt(token.Position{Filename: file, Line: 15}) {
		t.Error("moved-to-heap line 15 proved stack-safe")
	}
}

func TestHeapFactsBetween(t *testing.T) {
	f := Parse(canned, "/mod/example")
	fset := token.NewFileSet()
	tf := fset.AddFile(canonFile("/mod/example/pkg.go"), -1, 1000)
	for i := 0; i < 40; i++ {
		tf.AddLine(i * 25)
	}
	pos := func(line, col int) token.Pos { return tf.LineStart(line) + token.Pos(col-1) }

	got := f.HeapFactsBetween(fset, pos(11, 1), pos(16, 1))
	if len(got) != 2 {
		t.Fatalf("span 11-16: got %d heap facts, want 2 (escape + moved): %+v", len(got), got)
	}
	if got := f.HeapFactsBetween(fset, pos(13, 1), pos(14, 1)); len(got) != 0 {
		t.Errorf("empty span returned facts: %+v", got)
	}
	// Column bounds apply on the boundary lines.
	if got := f.HeapFactsBetween(fset, pos(12, 20), pos(16, 1)); len(got) != 1 {
		t.Errorf("column-excluded start still matched: %+v", got)
	}
}

func TestSplitPosLine(t *testing.T) {
	cases := []struct {
		in   string
		file string
		ln   int
		col  int
		msg  string
		ok   bool
	}{
		{"a.go:1:2: moved to heap: x", "a.go", 1, 2, "moved to heap: x", true},
		{"dir/b.go:10:20: x escapes to heap:", "dir/b.go", 10, 20, "x escapes to heap:", true},
		{"no position here", "", 0, 0, "", false},
		{"a.go:xx:2: msg", "", 0, 0, "", false},
		{"a.go:1: msg", "", 0, 0, "", false},
	}
	for _, c := range cases {
		file, ln, col, msg, ok := splitPosLine(c.in)
		if ok != c.ok || file != c.file || ln != c.ln || col != c.col || msg != c.msg {
			t.Errorf("splitPosLine(%q) = %q,%d,%d,%q,%v; want %q,%d,%d,%q,%v",
				c.in, file, ln, col, msg, ok, c.file, c.ln, c.col, c.msg, c.ok)
		}
	}
}

// TestForRealPackage runs the actual compiler over the hotpath testdata
// fixture and checks that compiler-confirmed facts come back — the
// integration path the driver and the analyzer fixtures rely on.
func TestForRealPackage(t *testing.T) {
	dir := filepath.Join("..", "hotpath", "testdata", "src", "hotpkg")
	pkg := analysistest.LoadPackage(t, dir, "example.com/hotpkg")
	mod := analysis.NewModule([]*analysis.Package{pkg})
	facts := For(mod, pkg)
	if !facts.Available {
		t.Skip("compiler diagnostics unavailable in this environment")
	}
	heap := 0
	for _, fact := range facts.All() {
		if fact.Kind == EscapesToHeap || fact.Kind == MovedToHeap {
			heap++
		}
	}
	if heap == 0 {
		t.Fatalf("no heap facts for fixture package; got %d facts total", len(facts.All()))
	}
	// Memoization: a second call must return the identical table.
	if again := For(mod, pkg); again != facts {
		t.Error("For rebuilt facts instead of hitting the module memo")
	}
}
