package analysis

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

// Package is one loaded, parsed, typechecked package of the module.
type Package struct {
	PkgPath string
	Name    string
	Dir     string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	DepOnly    bool
}

// Load lists the packages matching patterns under dir (a directory inside
// the module), parses their non-test Go files, and typechecks them. Module
// packages are typechecked from source; imports outside the module (the
// standard library) are read from the compiler's export data, which the
// same go list run builds into the build cache (-export), so no external
// tooling beyond the go command itself is required.
//
// Only packages directly matched by the patterns are returned; their
// intra-module dependencies are loaded as needed but not analyzed.
func Load(fset *token.FileSet, dir string, patterns []string) ([]*Package, error) {
	args := append([]string{"list", "-e", "-json", "-export", "-deps", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("analysis: go list %v: %v\n%s", patterns, err, stderr.String())
	}

	ld := &loader{
		fset:  fset,
		meta:  make(map[string]*listedPackage),
		built: make(map[string]*Package),
		busy:  make(map[string]bool),
	}
	exports := make(map[string]string) // standard import path -> export file
	ld.std = importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file := exports[path]
		if file == "" {
			return nil, fmt.Errorf("analysis: no export data for %s", path)
		}
		return os.Open(file)
	}).(types.ImporterFrom)

	var roots []string
	dec := json.NewDecoder(&stdout)
	for {
		var lp listedPackage
		if err := dec.Decode(&lp); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %v", err)
		}
		if lp.Standard {
			exports[lp.ImportPath] = lp.Export
			continue
		}
		if len(lp.GoFiles) == 0 {
			continue
		}
		p := lp
		ld.meta[p.ImportPath] = &p
		if !p.DepOnly {
			roots = append(roots, p.ImportPath)
		}
	}
	sort.Strings(roots)

	var out []*Package
	for _, path := range roots {
		pkg, err := ld.load(path)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// loader typechecks module packages on demand, in dependency order, sharing
// one file set and one export-data importer for the standard library across
// the whole run.
type loader struct {
	fset  *token.FileSet
	std   types.ImporterFrom
	meta  map[string]*listedPackage
	built map[string]*Package
	busy  map[string]bool
}

func (l *loader) load(path string) (*Package, error) {
	if p, ok := l.built[path]; ok {
		return p, nil
	}
	if l.busy[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.busy[path] = true
	defer delete(l.busy, path)

	m := l.meta[path]
	var files []*ast.File
	for _, name := range m.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(m.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: parsing %s: %v", name, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: typechecking %s: %v", path, err)
	}
	p := &Package{
		PkgPath: path,
		Name:    m.Name,
		Dir:     m.Dir,
		Fset:    l.fset,
		Files:   files,
		Types:   tpkg,
		Info:    info,
	}
	l.built[path] = p
	return p, nil
}

// Import implements types.Importer.
func (l *loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom: module packages are typechecked
// by the loader itself, everything else is read from its export data.
func (l *loader) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if _, ok := l.meta[path]; ok {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.ImportFrom(path, srcDir, mode)
}
