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
//	ctxflow    context.Context threading: first parameter, never a struct
//	           field, checked in unbounded loops
//	errflow    discarded errors, ==/!= sentinel comparisons, and non-%w
//	           wrapping of classified errors
//	goleak     go statements whose goroutines can never observe
//	           cancellation
//	loopdefer  defer statements inside for and range bodies
//	lockcheck  mutex discipline: every Lock reaches an Unlock on every
//	           path, no double-lock, no copied locks, no blocking calls
//	           while a hot-package mutex is held
//
// ctxflow, errflow, goleak, detrand's chain search and lockcheck are dataflow
// analyzers built on the control-flow graphs of internal/analysis/cfg and the
// whole-module call graph of internal/analysis/callgraph. Allocations on the
// paths the benchmarks time are not linted: testing.AllocsPerRun pins beside
// each layer hold them at run time (README "Code invariants"). loopdefer keeps
// the one class no pin sees. Each analyzer here is the only keeper of at
// least one planted defect (DESIGN.md §3 "Analyzer ledger"); -only refuses
// the name of a deleted one and says which test keeps its class.
//
// The module is typechecked from source and the standard library read from
// the export data go list -export leaves in the build cache, so the linter
// needs only the go command.
//
// -json emits the findings as a JSON array (file/line/col/analyzer/message
// and, for call-graph findings, the call chain) for CI artifacts and
// scripted triage.
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
	"strings"

	"odbgc/internal/analysis"
	"odbgc/internal/analysis/ctxflow"
	"odbgc/internal/analysis/detrand"
	"odbgc/internal/analysis/errflow"
	"odbgc/internal/analysis/goleak"
	"odbgc/internal/analysis/lockcheck"
	"odbgc/internal/analysis/loopdefer"
	"odbgc/internal/analysis/maporder"
	"odbgc/internal/analysis/nopanic"
)

var analyzers = []*analysis.Analyzer{
	detrand.Analyzer,
	maporder.Analyzer,
	nopanic.Analyzer,
	ctxflow.Analyzer,
	errflow.Analyzer,
	goleak.Analyzer,
	loopdefer.Analyzer,
	lockcheck.Analyzer,
}

// retired names the analyzers that no longer exist and where their checks
// went, so -only can refuse one by pointing at its successor.
var retired = map[string]string{
	"detrand-transitive": "folded into detrand",
	"hotalloc":           "folded into hotpath, since deleted; the AllocsPerRun pins keep its class",
	"hotbox":             "folded into hotpath, since deleted; the AllocsPerRun pins keep its class",
	"hotdefer":           "folded into hotpath, since deleted; loopdefer keeps its class",
	"prealloc":           "folded into hotpath, since deleted; the AllocsPerRun pins keep its class",
	"hotpath":            "deleted; the AllocsPerRun pins beside each layer keep allocation, boxing, append growth and the budget, loopdefer keeps defer in a loop",
	"guarded":            "deleted; -race on the concurrent suites keeps its class",
	"lifecycle":          "deleted; the crash-point sweep and the stores' own refusals keep its class",
	"snapcover":          "deleted; TestPolicySnapshotRoundTrips and TestSAGAIntervalFormula keep its class",
}

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
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: odbglint [-only analyzer,...] [-json] [packages]\n\n")
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
	findings, err := analysis.RunPackages(pkgs, suite)
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

	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "odbglint: %d finding(s)\n", len(findings))
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
