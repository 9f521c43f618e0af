package detrand

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"odbgc/internal/analysis"
	"odbgc/internal/analysis/callgraph"
)

// runTransitive extends the direct check through the module call graph: a
// deterministic package must not reach unseeded randomness, the wall clock,
// or the environment through ANY chain of calls, not just directly. The
// direct check catches `time.Now()` written inside internal/sim; this one
// catches internal/sim calling a helper in an uncovered package that calls
// `time.Now()` three frames down.
//
// Findings point at the first call of the chain — the line inside the
// deterministic package where determinism leaks out — and name the chain
// and the sink, so the fix site (thread the value, or annotate the sink)
// is visible from the diagnostic alone.
//
// Suppression composes with the direct check's: a sink annotated with a
// reasoned //lint:allow detrand stops being a forbidden endpoint for the
// whole-chain search, so one allow at the sink covers every caller instead
// of demanding one per chain. Chains of length zero (the forbidden call in
// the function's own body) are the direct check's job and are not
// re-reported here.
func runTransitive(pass *analysis.Pass) {
	graph := callgraph.For(pass.Module)
	sinks := sinkIndex(pass.Module, graph)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			path := graph.PathTo(fn, func(n *callgraph.Node) bool {
				return len(sinks[n]) > 0
			})
			if path == nil {
				continue
			}
			var chain []string
			for _, e := range path {
				chain = append(chain, e.Callee.Func.Name())
			}
			sink := sinks[path[len(path)-1].Callee][0]
			pass.Reportf(path[0].Pos(),
				"deterministic package reaches %s via %s; thread the value through the config or add //lint:allow detrand at the sink",
				sink, strings.Join(chain, " -> "))
		}
	}
}

// sinkMemoKey namespaces the sink index in the module memo.
const sinkMemoKey = "detrand.sinks"

// sinkIndex maps each module function to the forbidden calls its own body
// makes, computed once per run. Sinks carrying a reasoned //lint:allow
// detrand are dropped here, which is what lets one annotation at the sink
// silence every chain that reaches it.
func sinkIndex(mod *analysis.Module, graph *callgraph.Graph) map[*callgraph.Node][]string {
	v, _ := mod.Memo(sinkMemoKey, func() (any, error) {
		sinks := make(map[*callgraph.Node][]string)
		for _, n := range graph.Nodes() {
			node := n
			ast.Inspect(node.Decl, func(x ast.Node) bool {
				call, ok := x.(*ast.CallExpr)
				if !ok {
					return true
				}
				desc, _, ok := forbidden(node.Pkg.Info, call)
				if !ok {
					return true
				}
				pos := node.Pkg.Fset.Position(call.Pos())
				if mod.AllowedAt("detrand", pos) {
					return true
				}
				sinks[node] = append(sinks[node], fmt.Sprintf("%s at %s:%d", desc, pos.Filename, pos.Line))
				return true
			})
		}
		return sinks, nil
	})
	return v.(map[*callgraph.Node][]string)
}
