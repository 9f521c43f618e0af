// Package maporder flags range-over-map loops whose iteration order can
// leak into observable output: appends building slices, writes to writers,
// hashes, or encoders, and string accumulation. Go randomizes map iteration
// per run, so any of these turns bit-identical replay and reproducible
// experiment CSVs into a coin flip — exactly the class of bug that breaks
// snapshot round trips silently.
//
// The check is heuristic in the direction of safety: a loop that appends to
// a slice is fine when the slice is later passed to a sort (sort.Slice,
// sort.Strings, a local sortXxx helper — any call whose name contains
// "sort" taking the slice), which is the collect-then-sort idiom used
// throughout the snapshot encoders. Writes to maps and numeric integer
// accumulation are commutative and not flagged.
package maporder

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strings"

	"odbgc/internal/analysis"
)

// Analyzer is the maporder check.
var Analyzer = &analysis.Analyzer{
	Name: "maporder",
	Doc:  "flag map iteration whose order leaks into slices, output, or encoders without a sort",
	Run:  run,
}

// outputNames are method names that emit bytes somewhere order-sensitive:
// writers, hashes, and encoders.
var outputNames = map[string]bool{
	"Write":       true,
	"WriteString": true,
	"WriteByte":   true,
	"WriteRune":   true,
	"Encode":      true,
}

// printNames are the fmt package's printing functions.
var printNames = map[string]bool{
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Print": true, "Printf": true, "Println": true,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd.Body)
		}
	}
	return nil
}

func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pass.TypesInfo.Types[rs.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		checkMapRange(pass, body, rs)
		return true
	})
}

func checkMapRange(pass *analysis.Pass, funcBody *ast.BlockStmt, rs *ast.RangeStmt) {
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch stmt := n.(type) {
		case *ast.AssignStmt:
			// x = append(x, ...) — order-sensitive unless sorted later.
			for i, rhs := range stmt.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !isBuiltinAppend(pass, call) || i >= len(stmt.Lhs) {
					continue
				}
				target := render(pass.Fset, stmt.Lhs[i])
				if !sortedAfter(pass, funcBody, rs, target) {
					pass.Reportf(stmt.Pos(),
						"append to %s inside range over map without a later sort; map iteration order leaks into the slice", target)
				}
			}
			// s += ... on strings accumulates in iteration order.
			if stmt.Tok == token.ADD_ASSIGN && len(stmt.Lhs) == 1 {
				if tv, ok := pass.TypesInfo.Types[stmt.Lhs[0]]; ok {
					if basic, ok := tv.Type.Underlying().(*types.Basic); ok && basic.Info()&types.IsString != 0 {
						pass.Reportf(stmt.Pos(),
							"string concatenation inside range over map; iteration order leaks into the result")
					}
				}
			}
		case *ast.CallExpr:
			reportOutputCall(pass, stmt)
		}
		return true
	})
}

// reportOutputCall flags writer/encoder/fmt calls made directly inside a
// map-range body.
func reportOutputCall(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	name := sel.Sel.Name
	if ident, ok := sel.X.(*ast.Ident); ok {
		if pkgName, ok := pass.TypesInfo.Uses[ident].(*types.PkgName); ok {
			if pkgName.Imported().Path() == "fmt" && printNames[name] {
				pass.Reportf(call.Pos(),
					"fmt.%s inside range over map writes in nondeterministic order; sort the keys first", name)
			}
			return
		}
	}
	if outputNames[name] {
		pass.Reportf(call.Pos(),
			"%s inside range over map emits in nondeterministic order; sort the keys first", name)
	}
}

// sortedAfter reports whether, after the range loop, the function calls
// something sort-like on the appended slice.
func sortedAfter(pass *analysis.Pass, funcBody *ast.BlockStmt, rs *ast.RangeStmt, target string) bool {
	found := false
	ast.Inspect(funcBody, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= rs.End() {
			return true
		}
		funName := strings.ToLower(render(pass.Fset, call.Fun))
		if !strings.Contains(funName, "sort") {
			return true
		}
		for _, arg := range call.Args {
			if render(pass.Fset, arg) == target {
				found = true
				return false
			}
			// Sorting a sub-slice of the target — slices.Sort(dst[start:]),
			// the append-to-scratch idiom — still fixes the order of every
			// element the loop appended.
			if se, ok := arg.(*ast.SliceExpr); ok && render(pass.Fset, se.X) == target {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

func isBuiltinAppend(pass *analysis.Pass, call *ast.CallExpr) bool {
	ident, ok := call.Fun.(*ast.Ident)
	if !ok || ident.Name != "append" {
		return false
	}
	_, isBuiltin := pass.TypesInfo.Uses[ident].(*types.Builtin)
	return isBuiltin
}

func render(fset *token.FileSet, n ast.Node) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, n); err != nil {
		return ""
	}
	return buf.String()
}
