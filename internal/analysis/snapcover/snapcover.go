// Package snapcover cross-checks snapshot completeness: every field of
// every state struct declared in a snapshot.go or checkpoint.go file must
// be populated by an encoder and consumed by a decoder somewhere in the
// same package. The convention for the rate policies and estimators is
// that each keeps its mutable state in such a struct (the core policy
// states in core/snapshot.go); adding a field to the live object means
// adding it to the state struct, the snapshot method, and the restore
// function together.
// Forgetting either half used to be a silent resume corruption — the gob
// round-trip happily drops what nobody writes and nobody reads. snapcover
// makes it a build-time error at the field's declaration.
package snapcover

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"

	"odbgc/internal/analysis"
)

// Analyzer is the snapcover check.
var Analyzer = &analysis.Analyzer{
	Name: "snapcover",
	Doc:  "require every field of snapshot/checkpoint state structs to be encoded and decoded",
	Run:  run,
}

// snapshotFiles are the base names whose struct declarations are treated as
// checkpoint state images.
var snapshotFiles = map[string]bool{
	"snapshot.go":   true,
	"checkpoint.go": true,
}

// fieldState tracks one struct field's coverage.
type fieldState struct {
	structName string
	fieldName  string
	pos        token.Pos
	written    bool
	read       bool
}

func run(pass *analysis.Pass) error {
	// Pass 1: collect the state structs declared in snapshot/checkpoint
	// files, keyed by the types.Var of each field, plus the named types so
	// unkeyed composite literals can be resolved.
	fields := make(map[*types.Var]*fieldState)
	structFields := make(map[*types.TypeName][]*types.Var)
	var order []*fieldState

	for _, file := range pass.Files {
		base := filepath.Base(pass.Fset.Position(file.Pos()).Filename)
		if !snapshotFiles[base] {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			tn, ok := pass.TypesInfo.Defs[ts.Name].(*types.TypeName)
			if !ok {
				return true
			}
			for _, fld := range st.Fields.List {
				for _, name := range fld.Names {
					if name.Name == "_" {
						continue
					}
					v, ok := pass.TypesInfo.Defs[name].(*types.Var)
					if !ok {
						continue
					}
					fs := &fieldState{structName: ts.Name.Name, fieldName: name.Name, pos: name.Pos()}
					fields[v] = fs
					structFields[tn] = append(structFields[tn], v)
					order = append(order, fs)
				}
			}
			return true
		})
	}
	if len(fields) == 0 {
		return nil
	}

	// Pass 2: scan the whole package for reads and writes of those fields.
	for _, file := range pass.Files {
		// Selectors appearing as assignment targets are writes (and also
		// reads for compound assignment); everything else is a read.
		writeSel := make(map[*ast.SelectorExpr]token.Token)
		ast.Inspect(file, func(n ast.Node) bool {
			switch stmt := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range stmt.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						writeSel[sel] = stmt.Tok
					}
				}
			case *ast.IncDecStmt:
				if sel, ok := stmt.X.(*ast.SelectorExpr); ok {
					writeSel[sel] = token.ADD_ASSIGN
				}
			}
			return true
		})

		ast.Inspect(file, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.SelectorExpr:
				selection, ok := pass.TypesInfo.Selections[node]
				if !ok || selection.Kind() != types.FieldVal {
					return true
				}
				v, ok := selection.Obj().(*types.Var)
				if !ok {
					return true
				}
				fs, tracked := fields[v]
				if !tracked {
					return true
				}
				if tok, isWrite := writeSel[node]; isWrite {
					fs.written = true
					if tok != token.ASSIGN {
						fs.read = true
					}
				} else {
					fs.read = true
				}
			case *ast.CompositeLit:
				markCompositeLit(pass, node, fields, structFields)
			}
			return true
		})
	}

	for _, fs := range order {
		if !fs.written {
			pass.Reportf(fs.pos,
				"field %s.%s is never populated by a snapshot encoder in this package; checkpoints will silently drop it", fs.structName, fs.fieldName)
		}
		if !fs.read {
			pass.Reportf(fs.pos,
				"field %s.%s is never consumed by a snapshot decoder in this package; resume will silently ignore it", fs.structName, fs.fieldName)
		}
	}
	return nil
}

// markCompositeLit records field writes made through struct literals:
// keyed elements write the named fields, unkeyed literals of a state struct
// write every field.
func markCompositeLit(pass *analysis.Pass, lit *ast.CompositeLit, fields map[*types.Var]*fieldState, structFields map[*types.TypeName][]*types.Var) {
	keyed := false
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		keyed = true
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		if v, ok := pass.TypesInfo.Uses[key].(*types.Var); ok {
			if fs, tracked := fields[v]; tracked {
				fs.written = true
			}
		}
	}
	if keyed || len(lit.Elts) == 0 {
		return
	}
	// Unkeyed literal: resolve the literal's type and mark all fields.
	tv, ok := pass.TypesInfo.Types[lit]
	if !ok {
		return
	}
	t := tv.Type
	if ptr, isPtr := t.Underlying().(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return
	}
	for _, v := range structFields[named.Obj()] {
		if fs, tracked := fields[v]; tracked {
			fs.written = true
		}
	}
}
