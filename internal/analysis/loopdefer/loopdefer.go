// Package loopdefer reports a defer inside a for or range body. Its deferred
// call runs at function return, not at the end of the iteration, so the calls
// pile up for as long as the loop runs, and the loop pays for a defer record
// every iteration. No allocation pin sees the second cost: the runtime pools
// its defer records, so AllocsPerRun reads 0 over a loop of defers. A defer in
// a func literal inside the loop releases each call and is legal.
package loopdefer

import (
	"go/ast"

	"odbgc/internal/analysis"
)

// Analyzer is the defer-in-a-loop check, over every function of the module.
var Analyzer = &analysis.Analyzer{
	Name: "loopdefer",
	Doc:  "forbid defer statements inside for and range bodies",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		var stack []ast.Node // the path from the file to the node visited
		ast.Inspect(file, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			if _, ok := n.(*ast.DeferStmt); ok && inLoop(stack) {
				pass.Reportf(n.Pos(), "defer inside a loop runs once per iteration and releases only at function return; hoist it or inline the cleanup, or add //lint:allow loopdefer <reason>")
			}
			stack = append(stack, n)
			return true
		})
	}
	return nil
}

// inLoop reports whether the innermost loop or function around the top of
// stack is a loop. A defer is a statement, so under a loop it is in the body.
func inLoop(stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return true
		case *ast.FuncLit, *ast.FuncDecl:
			return false
		}
	}
	return false
}
