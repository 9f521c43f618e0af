package hotpath

import "odbgc/internal/analysis/escape"

// checkAllocs reports compiler-confirmed heap allocations that execute once
// per hot-loop iteration: an allocation inside a loop of a hot function, or
// anywhere in a loop-hot function (one reached from inside a hot loop — its
// whole body is per-iteration work).
//
// The facts come from the compiler's own escape analysis (escape package),
// so an `&Event{...}` the backend proves stack-safe is never reported — the
// check flags exactly the sites `-benchmem` would count.
func (f *hotFunc) checkAllocs(facts *escape.Facts) {
	pass, decl := f.pass, f.decl
	// One finding per line: the compiler describes a single allocation
	// with up to two facts ("moved to heap: x" plus "&x escapes"), and
	// nested loops revisit the same span.
	type lineKey struct {
		file string
		line int
	}
	seen := make(map[lineKey]bool)
	report := func(fact escape.Fact, where string) {
		// Error-path allocations are free on the success path.
		if InSpans(f.cold, escape.Pos(pass.Fset, decl.Pos(), fact)) {
			return
		}
		k := lineKey{fact.File, fact.Line}
		if seen[k] {
			return
		}
		seen[k] = true
		pass.Reportf(escape.LinePos(pass.Fset, decl.Pos(), fact),
			"hot-path heap allocation %s: %s (hot via %s); hoist it, reuse a buffer, or add //lint:allow hotpath <reason>",
			where, fact.Text, f.chain)
	}
	if f.loopHot {
		for _, fact := range facts.HeapFactsBetween(pass.Fset, decl.Pos(), decl.End()) {
			report(fact, "in per-iteration function")
		}
		return
	}
	for _, loop := range f.loops {
		for _, fact := range facts.HeapFactsBetween(pass.Fset, loop.Stmt.Pos(), loop.Stmt.End()) {
			report(fact, "in loop")
		}
	}
}
