// Package analysistest runs an analyzer over a fixture package and checks
// its findings against // want comments, mirroring the x/tools package of
// the same name. A fixture line expecting a finding carries a trailing
// comment of the form
//
//	code() // want "regexp"
//
// (several quoted regexps may follow one want). Every finding must match a
// want on its line and every want must be matched by a finding, so fixtures
// pin both the positives and the negatives of each analyzer. //lint:allow
// suppression runs before matching, exactly as in the real driver, which
// lets fixtures assert the escape hatch too.
package analysistest

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"odbgc/internal/analysis"
)

var wantRe = regexp.MustCompile(`//\s*want\s+(.*)$`)

// fset and stdlib are shared by every fixture a test binary loads: the
// standard library is read from the compiler's export data once per package
// per binary, and its objects' positions live in the same file set as the
// fixtures'. The importer is not safe for concurrent use, so fixtures are
// loaded from tests that do not run in parallel.
var (
	fset   = token.NewFileSet()
	stdlib = importer.ForCompiler(fset, "gc", nil)
)

// Run analyzes the fixture package in dir (all non-test .go files), checking
// the findings that survive //lint:allow filtering against the fixture's
// want comments. pkgPath is the import path the fixture package pretends to
// have — analyzers that gate on package paths (detrand's deterministic
// package list, nopanic's cmd exemption) see this value.
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgPath string) {
	t.Helper()

	pkg := LoadPackage(t, dir, pkgPath)
	fset := pkg.Fset
	findings, err := analysis.RunPackage(pkg, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, dir, err)
	}

	wants := collectWants(t, fset, pkg.Files)
	for _, f := range findings {
		key := wantKey{file: f.Pos.Filename, line: f.Pos.Line}
		matched := false
		for _, w := range wants[key] {
			if !w.used && w.re.MatchString(f.Message) {
				w.used = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding at %s:%d: %s: %s", filepath.Base(f.Pos.Filename), f.Pos.Line, f.Analyzer, f.Message)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.used {
				t.Errorf("no finding matched want %q at %s:%d", w.re, filepath.Base(key.file), key.line)
			}
		}
	}
}

type wantKey struct {
	file string
	line int
}

type want struct {
	re   *regexp.Regexp
	used bool
}

func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) map[wantKey][]*want {
	t.Helper()
	wants := make(map[wantKey][]*want)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				rest := strings.TrimSpace(m[1])
				for len(rest) > 0 {
					q, tail, err := nextQuoted(rest)
					if err != nil {
						t.Fatalf("%s:%d: bad want comment: %v", filepath.Base(pos.Filename), pos.Line, err)
					}
					re, err := regexp.Compile(q)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", filepath.Base(pos.Filename), pos.Line, q, err)
					}
					key := wantKey{file: pos.Filename, line: pos.Line}
					wants[key] = append(wants[key], &want{re: re})
					rest = strings.TrimSpace(tail)
				}
			}
		}
	}
	return wants
}

// nextQuoted splits one leading Go-quoted string off s.
func nextQuoted(s string) (string, string, error) {
	if !strings.HasPrefix(s, `"`) {
		return "", "", strconv.ErrSyntax
	}
	for i := 1; i < len(s); i++ {
		if s[i] == '\\' {
			i++
			continue
		}
		if s[i] == '"' {
			q, err := strconv.Unquote(s[:i+1])
			return q, s[i+1:], err
		}
	}
	return "", "", strconv.ErrSyntax
}

// LoadPackage parses and typechecks one fixture package (all non-test .go
// files in dir) under the pretended import path pkgPath, failing the test on
// any error. The cfg and callgraph test suites share it to load their
// fixture functions.
func LoadPackage(t *testing.T, dir string, pkgPath string) *analysis.Package {
	t.Helper()
	pkg, err := loadFixture(dir, pkgPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	return pkg
}

// loadFixture parses and typechecks the fixture package. Fixture files may
// import only the standard library.
func loadFixture(dir string, pkgPath string) (*analysis.Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)

	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: stdlib}
	tpkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		return nil, err
	}
	return &analysis.Package{
		PkgPath: pkgPath,
		Name:    tpkg.Name(),
		Dir:     dir,
		Fset:    fset,
		Files:   files,
		Types:   tpkg,
		Info:    info,
	}, nil
}
