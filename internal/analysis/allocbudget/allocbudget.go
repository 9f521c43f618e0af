// Package allocbudget turns the escape fact table into a CI gate: a JSON
// budget (lint/allocbudget.json) records, per hot function, how many source
// lines the compiler proves to allocate on the heap. `odbglint -allocbudget`
// recomputes the counts and fails when any hot function allocates on more
// lines than its recorded budget — so a new hot-path allocation becomes a
// lint failure even when it hides outside a loop (where hotpath would not
// fire). Shrinking is always legal; `odbglint -write-allocbudget` (or
// `make lint-allocbudget`) re-baselines after deliberate changes.
//
// Counting distinct allocating lines, not raw facts, keeps the budget
// stable against the compiler describing one allocation with several
// diagnostics, and against formatting-only churn within a line.
package allocbudget

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"odbgc/internal/analysis"
	"odbgc/internal/analysis/callgraph"
	"odbgc/internal/analysis/escape"
	"odbgc/internal/analysis/hotpath"
)

// Budget is the persisted form: hot function full name → count of distinct
// heap-allocating lines in its body. Functions with zero allocations are
// omitted.
type Budget struct {
	Version   int            `json:"version"`
	Functions map[string]int `json:"functions"`
}

// Version is the current budget schema version.
const Version = 1

// Compute builds the current budget for the module's hot region. It errors
// when the compiler's escape facts are unavailable for a package that
// contains hot functions — a silent zero would read as improvement.
func Compute(mod *analysis.Module) (*Budget, error) {
	g := callgraph.For(mod)
	region := hotpath.For(mod)
	b := &Budget{Version: Version, Functions: make(map[string]int)}
	missing := make(map[string]bool)
	for _, n := range region.Functions(g) {
		facts := escape.For(mod, n.Pkg)
		if !facts.Available {
			missing[n.Pkg.PkgPath] = true
			continue
		}
		cold := hotpath.ColdSpans(n.Pkg.Info, n.Decl)
		lines := make(map[int]bool)
		for _, f := range facts.HeapFactsBetween(n.Pkg.Fset, n.Decl.Pos(), n.Decl.End()) {
			if hotpath.InSpans(cold, escape.Pos(n.Pkg.Fset, n.Decl.Pos(), f)) {
				continue
			}
			lines[f.Line] = true
		}
		if len(lines) > 0 {
			b.Functions[n.Func.FullName()] = len(lines)
		}
	}
	if len(missing) > 0 {
		pkgs := make([]string, 0, len(missing))
		for p := range missing {
			pkgs = append(pkgs, p)
		}
		sort.Strings(pkgs)
		return nil, fmt.Errorf("escape facts unavailable for hot packages (build failed?): %s", strings.Join(pkgs, ", "))
	}
	return b, nil
}

// Load reads a budget file.
func Load(path string) (*Budget, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Budget
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if b.Version != Version {
		return nil, fmt.Errorf("%s: budget version %d, want %d (regenerate with -write-allocbudget)", path, b.Version, Version)
	}
	if b.Functions == nil {
		b.Functions = make(map[string]int)
	}
	return &b, nil
}

// Write persists the budget with stable formatting (sorted keys, indented)
// so regeneration diffs cleanly. The parent directory is created if absent.
func (b *Budget) Write(path string) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Regression is one hot function allocating on more lines than budgeted.
type Regression struct {
	Func string
	Old  int // 0 for a newly hot or newly allocating function
	New  int
}

func (r Regression) String() string {
	return fmt.Sprintf("allocbudget: %s: %d allocating line(s), budget %d", r.Func, r.New, r.Old)
}

// Diff lists the current budget's regressions against the recorded one,
// sorted by function name. Shrinkage and disappearances are not reported.
func Diff(recorded, current *Budget) []Regression {
	var out []Regression
	for fn, n := range current.Functions {
		if o := recorded.Functions[fn]; n > o {
			out = append(out, Regression{Func: fn, Old: o, New: n})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Func < out[j].Func })
	return out
}
