package hotpath

import (
	"go/ast"
	"go/types"

	"odbgc/internal/analysis/escape"
)

// checkBoxing reports interface-conversion allocations (boxing) on hot
// paths: a concrete value passed to an interface parameter, converted to an
// interface type, or assigned to an interface variable inside a hot loop —
// per-event observer dispatch and fmt-style variadic boxing being the
// motivating cases. A syntactic conversion alone is not enough: the site is
// reported only when the compiler's escape analysis confirms a heap
// allocation on the line, so conversions the backend optimizes away (nil,
// zero-size values, stack-proved temporaries) stay silent.
func (f *hotFunc) checkBoxing(facts *escape.Facts) {
	pass := f.pass
	var spans []ast.Node
	if f.loopHot {
		spans = []ast.Node{f.decl}
	} else {
		for _, loop := range f.loops {
			spans = append(spans, loop.Stmt)
		}
	}
	seen := make(map[siteKey]bool)
	for _, span := range spans {
		ast.Inspect(span, func(n ast.Node) bool {
			expr, iface, ok := boxing(pass.TypesInfo, n)
			if !ok {
				return true
			}
			// Boxing on an error path costs nothing per iteration.
			if InSpans(f.cold, expr.Pos()) {
				return true
			}
			pos := pass.Fset.Position(expr.Pos())
			if _, confirmed := facts.HeapEscapeAt(pos); !confirmed {
				return true
			}
			key := siteKey{pos.Filename, pos.Line, pos.Column}
			if seen[key] {
				return true
			}
			seen[key] = true
			pass.Reportf(expr.Pos(),
				"interface conversion allocates on hot path: %s boxed as %s (hot via %s); pass the concrete type or add //lint:allow hotpath <reason>",
				types.TypeString(pass.TypesInfo.TypeOf(expr), types.RelativeTo(pass.Pkg)),
				types.TypeString(iface, types.RelativeTo(pass.Pkg)),
				f.chain)
			return true
		})
	}
}

type siteKey struct {
	file      string
	line, col int
}

// boxing reports whether node converts a concrete value to an interface:
// the boxed expression and the target interface type. Handled forms are
// call arguments (fixed and variadic interface parameters), explicit
// conversions I(x), and assignments/definitions into interface-typed
// variables.
func boxing(info *types.Info, node ast.Node) (ast.Expr, types.Type, bool) {
	switch n := node.(type) {
	case *ast.CallExpr:
		if tv, ok := info.Types[n.Fun]; ok && tv.IsType() {
			// Explicit conversion I(x).
			if types.IsInterface(tv.Type) && len(n.Args) == 1 && boxable(info, n.Args[0]) {
				return n.Args[0], tv.Type, true
			}
			return nil, nil, false
		}
		sig, ok := signatureOf(info, n.Fun)
		if !ok {
			return nil, nil, false
		}
		for i, arg := range n.Args {
			pt, ok := paramType(sig, i, n.Ellipsis.IsValid())
			if !ok || !types.IsInterface(pt) || !boxable(info, arg) {
				continue
			}
			return arg, pt, true
		}
	case *ast.AssignStmt:
		for i, rhs := range n.Rhs {
			if i >= len(n.Lhs) || len(n.Rhs) != len(n.Lhs) {
				break
			}
			lt := info.TypeOf(n.Lhs[i])
			if lt != nil && types.IsInterface(lt) && boxable(info, rhs) {
				return rhs, lt, true
			}
		}
	}
	return nil, nil, false
}

// signatureOf resolves a call's function expression to its signature;
// builtins and type expressions have none.
func signatureOf(info *types.Info, fun ast.Expr) (*types.Signature, bool) {
	t := info.TypeOf(fun)
	if t == nil {
		return nil, false
	}
	sig, ok := t.Underlying().(*types.Signature)
	return sig, ok
}

// paramType returns the declared type of argument i; for a variadic
// parameter the element type, unless the caller spreads with `...` (then
// the slice is passed through and nothing is boxed).
func paramType(sig *types.Signature, i int, spread bool) (types.Type, bool) {
	params := sig.Params()
	if sig.Variadic() && i >= params.Len()-1 {
		if spread {
			return nil, false
		}
		sl, ok := params.At(params.Len() - 1).Type().(*types.Slice)
		if !ok {
			return nil, false
		}
		return sl.Elem(), true
	}
	if i < params.Len() {
		return params.At(i).Type(), true
	}
	return nil, false
}

// boxable reports whether expr is a concrete (non-interface, non-nil)
// value — the only kind whose interface conversion can allocate.
func boxable(info *types.Info, expr ast.Expr) bool {
	t := info.TypeOf(expr)
	if t == nil || types.IsInterface(t) {
		return false
	}
	if b, ok := t.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return false
	}
	return true
}
