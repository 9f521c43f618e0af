package hotpath

import (
	"go/ast"
	"go/types"

	"odbgc/internal/analysis"
	"odbgc/internal/analysis/cfg"
	"odbgc/internal/analysis/escape"
)

// Analyzer is the performance check over the hot region. It reports four
// things under one name — compiler-confirmed heap allocations (alloc.go),
// allocating interface conversions (box.go), defers inside loops (defer.go)
// and append-growth with a derivable length (prealloc.go) — each with the
// call chain from the hot seed, so the diagnostic alone shows why the site
// is hot. A deliberate site takes a reasoned //lint:allow hotpath comment;
// an allocation can also be budgeted in lint/allocbudget.json.
var Analyzer = &analysis.Analyzer{
	Name: "hotpath",
	Doc:  "forbid heap allocations, boxing, defers, and unsized append-growth on hot loop paths",
	Run:  run,
}

// hotFunc is one hot function declaration with what the four checks share:
// its loops, its error-path spans, and the chain that made it hot.
type hotFunc struct {
	pass  *analysis.Pass
	decl  *ast.FuncDecl
	loops []*cfg.Loop
	// loopHot: the whole body is per-iteration work for a hot loop upstream.
	loopHot bool
	cold    []Span
	chain   string
}

func run(pass *analysis.Pass) error {
	region := For(pass.Module)
	// The compiler's escape facts, fetched for the first hot function: a
	// package with none costs no compiler run. Without facts (no toolchain,
	// a package that does not build) the two allocation checks stay silent
	// rather than guess, and the two syntactic ones still run.
	var facts *escape.Facts
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[decl.Name].(*types.Func)
			if !ok || !region.Hot(fn) {
				continue
			}
			if facts == nil {
				facts = escape.ForPass(pass)
			}
			f := &hotFunc{
				pass:    pass,
				decl:    decl,
				loops:   cfg.New(decl.Body).Loops,
				loopHot: region.LoopHot(fn),
				cold:    ColdSpans(pass.TypesInfo, decl),
				chain:   region.Chain(fn),
			}
			if facts.Available {
				f.checkAllocs(facts)
				f.checkBoxing(facts)
			}
			f.checkDefers()
			f.checkAppends()
		}
	}
	return nil
}
