// Command odbglint is the repository's multichecker: it runs the custom
// analyzers that enforce the simulator's reproducibility contract over the
// module and exits nonzero on any finding.
//
//	go run ./cmd/odbglint ./...               # what make lint and CI run
//	go run ./cmd/odbglint -list               # show the analyzers
//	go run ./cmd/odbglint -only goleak ./...  # one analyzer (comma-separable)
//
// The analyzers (see internal/analysis/...):
//
//	detrand    unseeded randomness, wall-clock reads, env lookups in
//	           deterministic packages, written there or reached from there
//	           through any chain of calls
//	maporder   map iteration order leaking into slices, output, encoders
//	nopanic    panic / log.Fatal* / os.Exit outside package main and tests
//	snapcover  snapshot state structs with unencoded or undecoded fields
//	ctxflow    context.Context threading: first parameter, never a struct
//	           field, checked in unbounded loops
//	errflow    discarded errors, ==/!= sentinel comparisons, and non-%w
//	           wrapping of classified errors
//	goleak     go statements whose goroutines can never observe
//	           cancellation
//	hotpath    on hot loop paths: compiler-confirmed heap allocations,
//	           allocating interface conversions (boxing), defer statements,
//	           and append-growth with a derivable length
//	lockcheck  mutex discipline: every Lock reaches an Unlock on every
//	           path, no double-lock, no copied locks, no blocking calls
//	           while a hot-package mutex is held
//
// ctxflow, errflow, goleak, detrand's chain search and lockcheck are dataflow
// analyzers built on the control-flow graphs of internal/analysis/cfg and the
// whole-module call graph of internal/analysis/callgraph. hotpath is the
// performance layer: it marks the hot region (benchmark bodies, curated
// simulator/trace/server roots, unbounded serving loops, closed over the call
// graph) and internal/analysis/escape turns `go build -gcflags='-m=2 -l'`
// diagnostics into the allocation facts its checks join against.
//
// -json emits the findings as a JSON array (file/line/col/analyzer/message
// and, for call-graph findings, the call chain) for CI artifacts and
// scripted triage.
//
// The performance layer also maintains an allocation budget:
//
//	go run ./cmd/odbglint -allocbudget ./...        # fail on hot-path allocation growth
//	go run ./cmd/odbglint -write-allocbudget ./...  # re-baseline lint/allocbudget.json
//
// A genuinely intended violation is suppressed in place with
//
//	//lint:allow <analyzer> <reason>
//
// on or directly above the offending line; suppressions without a reason
// are themselves findings.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"odbgc/internal/analysis"
	"odbgc/internal/analysis/allocbudget"
	"odbgc/internal/analysis/callgraph"
	"odbgc/internal/analysis/ctxflow"
	"odbgc/internal/analysis/detrand"
	"odbgc/internal/analysis/errflow"
	"odbgc/internal/analysis/escape"
	"odbgc/internal/analysis/goleak"
	"odbgc/internal/analysis/hotpath"
	"odbgc/internal/analysis/lockcheck"
	"odbgc/internal/analysis/maporder"
	"odbgc/internal/analysis/nopanic"
	"odbgc/internal/analysis/snapcover"
)

var analyzers = []*analysis.Analyzer{
	detrand.Analyzer,
	maporder.Analyzer,
	nopanic.Analyzer,
	snapcover.Analyzer,
	ctxflow.Analyzer,
	errflow.Analyzer,
	goleak.Analyzer,
	hotpath.Analyzer,
	lockcheck.Analyzer,
}

// retired names the analyzers that no longer exist and where their checks
// went, so -only can refuse one by pointing at its successor.
var retired = map[string]string{
	"detrand-transitive": "folded into detrand",
	"hotalloc":           "folded into hotpath",
	"hotbox":             "folded into hotpath",
	"hotdefer":           "folded into hotpath",
	"prealloc":           "folded into hotpath",
	"guarded":            "deleted; -race on the concurrent suites keeps its class",
	"lifecycle":          "deleted; the crash-point sweep and the stores' own refusals keep its class",
}

// factAnalyzers names the analyzers that consume compiler escape facts; the
// driver prewarms the fact tables (bounded-parallel `go build` runs over
// the hot packages) when any of them — or the allocation budget — is in
// play.
var factAnalyzers = map[string]bool{"hotpath": true}

// selectAnalyzers filters the suite down to the comma-separated names in
// only; an empty only keeps everything. Unknown names are an error so a
// typo cannot silently lint nothing.
func selectAnalyzers(only string) ([]*analysis.Analyzer, error) {
	if only == "" {
		return analyzers, nil
	}
	byName := make(map[string]*analysis.Analyzer, len(analyzers))
	for _, a := range analyzers {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			if where, was := retired[name]; was {
				return nil, fmt.Errorf("unknown analyzer %q (%s; run -list for the suite)", name, where)
			}
			return nil, fmt.Errorf("unknown analyzer %q (run -list for the suite)", name)
		}
		out = append(out, a)
	}
	return out, nil
}

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	only := flag.String("only", "", "run only the named analyzers (comma-separated)")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array instead of file:line text")
	checkBudget := flag.Bool("allocbudget", false, "also fail when a hot function allocates on more lines than lint/allocbudget.json records")
	writeBudget := flag.Bool("write-allocbudget", false, "recompute the allocation budget and rewrite the budget file")
	budgetFile := flag.String("allocbudget-file", filepath.Join("lint", "allocbudget.json"), "allocation budget file")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: odbglint [-only analyzer,...] [-allocbudget|-write-allocbudget] [packages]\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		return
	}
	suite, err := selectAnalyzers(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, "odbglint:", err)
		os.Exit(2)
	}
	// Allow directives are validated against the full suite even under
	// -only, so a suppression for an unselected analyzer stays legal.
	for _, a := range analyzers {
		analysis.KnownAllowNames = append(analysis.KnownAllowNames, a.Name)
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	fset := token.NewFileSet()
	pkgs, err := analysis.Load(fset, ".", patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "odbglint:", err)
		os.Exit(2)
	}
	mod := analysis.NewModule(pkgs)

	needFacts := *checkBudget || *writeBudget
	for _, a := range suite {
		if factAnalyzers[a.Name] {
			needFacts = true
		}
	}
	if needFacts {
		prewarmFacts(mod)
	}

	findings, err := analysis.RunModule(mod, suite)
	if err != nil {
		fmt.Fprintln(os.Stderr, "odbglint:", err)
		os.Exit(2)
	}
	cwd, _ := os.Getwd()
	for i := range findings {
		if cwd != "" {
			if rel, err := filepath.Rel(cwd, findings[i].Pos.Filename); err == nil {
				findings[i].Pos.Filename = rel
			}
		}
	}
	if *jsonOut {
		printJSON(findings)
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}

	failures := len(findings)
	switch {
	case *writeBudget:
		b, err := allocbudget.Compute(mod)
		if err != nil {
			fmt.Fprintln(os.Stderr, "odbglint:", err)
			os.Exit(2)
		}
		if err := b.Write(*budgetFile); err != nil {
			fmt.Fprintln(os.Stderr, "odbglint:", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "odbglint: wrote %s (%d budgeted function(s))\n", *budgetFile, len(b.Functions))
	case *checkBudget:
		b, err := allocbudget.Compute(mod)
		if err != nil {
			fmt.Fprintln(os.Stderr, "odbglint:", err)
			os.Exit(2)
		}
		recorded, err := allocbudget.Load(*budgetFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "odbglint:", err)
			os.Exit(2)
		}
		regs := allocbudget.Diff(recorded, b)
		for _, r := range regs {
			fmt.Println(r)
		}
		if len(regs) > 0 {
			fmt.Fprintf(os.Stderr, "odbglint: %d allocation budget regression(s); fix the allocation or re-baseline with -write-allocbudget\n", len(regs))
		}
		failures += len(regs)
	}

	if failures > 0 {
		if len(findings) > 0 {
			fmt.Fprintf(os.Stderr, "odbglint: %d finding(s)\n", len(findings))
		}
		os.Exit(1)
	}
}

// jsonFinding is the -json record: position, analyzer, message, and — for
// findings that cross the call graph (lockcheck's transitive blocking) —
// the call chain from the reported site to the sink.
type jsonFinding struct {
	File     string   `json:"file"`
	Line     int      `json:"line"`
	Col      int      `json:"col"`
	Analyzer string   `json:"analyzer"`
	Message  string   `json:"message"`
	Chain    []string `json:"chain,omitempty"`
}

// printJSON writes the findings as one JSON array on stdout. An empty run
// prints [] so CI artifacts are always well-formed.
func printJSON(findings []analysis.Finding) {
	out := make([]jsonFinding, 0, len(findings))
	for _, f := range findings {
		out = append(out, jsonFinding{
			File:     f.Pos.Filename,
			Line:     f.Pos.Line,
			Col:      f.Pos.Column,
			Analyzer: f.Analyzer,
			Message:  f.Message,
			Chain:    f.Chain,
		})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "odbglint:", err)
		os.Exit(2)
	}
}

// prewarmFacts builds escape fact tables for the packages that contain hot
// functions, in parallel, before the analyzers run sequentially.
func prewarmFacts(mod *analysis.Module) {
	g := callgraph.For(mod)
	region := hotpath.For(mod)
	seen := make(map[*analysis.Package]bool)
	var hotPkgs []*analysis.Package
	for _, n := range region.Functions(g) {
		if !seen[n.Pkg] {
			seen[n.Pkg] = true
			hotPkgs = append(hotPkgs, n.Pkg)
		}
	}
	workers := runtime.NumCPU()
	if workers > 8 {
		workers = 8
	}
	escape.Prewarm(mod, hotPkgs, workers)
}
