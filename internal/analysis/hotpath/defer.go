package hotpath

import "go/ast"

// checkDefers reports defer statements inside hot loops. A defer in a loop
// body runs its bookkeeping — and often an allocation for the deferred
// frame — on every iteration, and the deferred calls pile up until the
// *function* returns, not the iteration: a classic latency and memory trap
// in event loops. The fix is to hoist the defer out of the loop or inline
// the cleanup at the end of the iteration; a deliberate per-iteration defer
// (e.g. scoping a lock inside a func literal) takes a reasoned
// //lint:allow hotpath.
//
// Purely syntactic — it needs no compiler facts, so it works even where the
// escape table is unavailable.
func (f *hotFunc) checkDefers() {
	seen := make(map[*ast.DeferStmt]bool)
	for _, loop := range f.loops {
		ast.Inspect(loop.Stmt, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				// A defer inside a func literal scopes to the literal,
				// not the loop: it releases every call, so the pile-up
				// hazard is gone (the allocation, if any, is checkAllocs'
				// to report).
				return false
			case *ast.DeferStmt:
				if seen[n] {
					return true
				}
				seen[n] = true
				f.pass.Reportf(n.Pos(),
					"defer inside hot loop runs once per iteration and releases only at function return (hot via %s); hoist it or inline the cleanup, or add //lint:allow hotpath <reason>",
					f.chain)
			}
			return true
		})
	}
}
