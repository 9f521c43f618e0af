package hotpath

import (
	"go/ast"
	"go/types"
)

// checkAppends reports append-growth in hot range loops when the final
// length is derivable in scope: `for _, x := range src { out = append(out, f(x)) }`
// grows out through O(log n) reallocations and copies, all avoidable with
// `out := make([]T, 0, len(src))`. Only clear-cut cases are reported —
// the destination must be declared in the same function, visibly without a
// capacity (plain `var`, empty literal, or two-argument make), and the
// range source must be a length-measurable expression. Anything murkier
// (parameters, package vars, conditional appends sizing differently) is
// left alone.
func (f *hotFunc) checkAppends() {
	pass := f.pass
	for _, loop := range f.loops {
		rng, ok := loop.Stmt.(*ast.RangeStmt)
		if !ok || !measurable(pass.TypesInfo, rng.X) {
			continue
		}
		ast.Inspect(rng.Body, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			assign, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			dst, ok := appendGrowth(pass.TypesInfo, assign)
			if !ok {
				return true
			}
			obj, ok := pass.TypesInfo.Uses[dst].(*types.Var)
			if !ok {
				return true
			}
			// The range source itself is never a candidate: appending
			// to what you range over is a different bug.
			if src, ok := ast.Unparen(rng.X).(*ast.Ident); ok && pass.TypesInfo.Uses[src] == obj {
				return true
			}
			decl, ok := findDecl(f.decl, pass.TypesInfo, obj)
			if !ok || decl.Pos() >= rng.Pos() || hasCapacity(decl) {
				return true
			}
			pass.Reportf(assign.Pos(),
				"append grows %s per iteration of a hot range loop (hot via %s); declare it with make(%s, 0, len(%s)) or add //lint:allow hotpath <reason>",
				dst.Name, f.chain,
				types.TypeString(obj.Type(), types.RelativeTo(pass.Pkg)),
				types.ExprString(rng.X))
			return true
		})
	}
}

// appendGrowth matches `dst = append(dst, ...)` with a plain identifier
// destination and returns it.
func appendGrowth(info *types.Info, assign *ast.AssignStmt) (*ast.Ident, bool) {
	if len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
		return nil, false
	}
	lhs, ok := assign.Lhs[0].(*ast.Ident)
	if !ok {
		return nil, false
	}
	call, ok := assign.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return nil, false
	}
	fun, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || fun.Name != "append" {
		return nil, false
	}
	if b, ok := info.Uses[fun].(*types.Builtin); !ok || b.Name() != "append" {
		return nil, false
	}
	arg0, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok || info.Uses[arg0] != info.Uses[lhs] {
		return nil, false
	}
	return lhs, true
}

// measurable reports whether len(expr) is available in scope: a plain
// identifier or field selection of a slice, array, map, string, or channel.
func measurable(info *types.Info, expr ast.Expr) bool {
	switch ast.Unparen(expr).(type) {
	case *ast.Ident, *ast.SelectorExpr:
	default:
		return false
	}
	t := info.TypeOf(expr)
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Slice, *types.Array, *types.Map:
		return true
	case *types.Pointer:
		_, ok := u.Elem().Underlying().(*types.Array)
		return ok
	case *types.Basic:
		return u.Info()&types.IsString != 0
	}
	return false
}

// findDecl locates obj's declaration inside fn: the ValueSpec of a var
// declaration or the := assignment that defines it.
func findDecl(fn *ast.FuncDecl, info *types.Info, obj *types.Var) (ast.Node, bool) {
	var decl ast.Node
	ast.Inspect(fn, func(n ast.Node) bool {
		if decl != nil {
			return false
		}
		switch n := n.(type) {
		case *ast.ValueSpec:
			for _, name := range n.Names {
				if info.Defs[name] == obj {
					decl = n
					return false
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && info.Defs[id] == obj {
					decl = n
					return false
				}
			}
		}
		return true
	})
	return decl, decl != nil
}

// hasCapacity reports whether the declaration visibly reserves capacity: a
// three-argument make, or initialization from a non-empty composite
// literal or another expression we cannot see through (a call result, a
// slice of something) — only the plainly capacity-free forms return false.
func hasCapacity(decl ast.Node) bool {
	var values []ast.Expr
	switch d := decl.(type) {
	case *ast.ValueSpec:
		values = d.Values
	case *ast.AssignStmt:
		values = d.Rhs
	}
	if len(values) == 0 {
		return false // var s []T
	}
	for _, v := range values {
		switch v := ast.Unparen(v).(type) {
		case *ast.CompositeLit:
			if len(v.Elts) > 0 {
				return true
			}
		case *ast.CallExpr:
			fun, ok := ast.Unparen(v.Fun).(*ast.Ident)
			if ok && fun.Name == "make" {
				if len(v.Args) >= 3 {
					return true
				}
				continue // make([]T, 0): length only, still grows
			}
			return true // unknown call result: assume sized
		case *ast.Ident:
			if v.Name == "nil" {
				continue
			}
			return true
		default:
			return true
		}
	}
	return false
}
