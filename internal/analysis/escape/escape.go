// Package escape turns the Go compiler's own escape-analysis and inlining
// diagnostics (`go build -gcflags=-m=2`) into a typed, position-indexed fact
// table the performance analyzers can query. The compiler is the single
// source of truth for "does this expression allocate on the heap": rather
// than re-deriving escape analysis syntactically (and drifting from the real
// toolchain), the suite runs one ordinary build per package and parses the
// diagnostics the backend already emits.
//
// Facts are memoized per package in the module memo, like the call graph, so
// hotpath's two allocation checks and the allocation-budget gate share one
// compiler run per package. Prewarm builds
// the whole module's tables with bounded parallelism so a full odbglint run
// pays wall-clock for the slowest package, not the sum.
//
// Fixture packages under testdata compile too (they live inside the module
// and import only the standard library), so analysistest fixtures exercise
// the same compiler-confirmed path as the real driver — no mock facts.
package escape

import (
	"bufio"
	"bytes"
	"fmt"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"

	"odbgc/internal/analysis"
)

// Kind classifies one compiler diagnostic.
type Kind int

// The diagnostic kinds the parser distinguishes. Anything else the compiler
// prints (leaking params, flow explanations, devirtualization notes) is
// dropped: the analyzers only reason about allocations and inlining.
const (
	// EscapesToHeap marks an expression the compiler allocates on the heap:
	// "x escapes to heap", "&T{...} escapes to heap", "func literal escapes
	// to heap". Interface conversions that allocate surface as this kind at
	// the conversion's position.
	EscapesToHeap Kind = iota
	// MovedToHeap marks a local variable the compiler relocated to the heap
	// ("moved to heap: x"): every execution of its declaration allocates.
	MovedToHeap
	// DoesNotEscape marks an allocation site the compiler proved stack-safe
	// ("&T{...} does not escape", "make([]T, n) does not escape", "...
	// argument does not escape").
	DoesNotEscape
	// CanInline / CannotInline / InliningCall record the inliner's verdicts
	// on declarations and call sites.
	CanInline
	CannotInline
	InliningCall
)

// String names the kind for diagnostics and budget files.
func (k Kind) String() string {
	switch k {
	case EscapesToHeap:
		return "escapes-to-heap"
	case MovedToHeap:
		return "moved-to-heap"
	case DoesNotEscape:
		return "does-not-escape"
	case CanInline:
		return "can-inline"
	case CannotInline:
		return "cannot-inline"
	case InliningCall:
		return "inlining-call"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Fact is one parsed compiler diagnostic.
type Fact struct {
	// File is the absolute path of the source file.
	File string
	Line int
	Col  int
	Kind Kind
	// Text is the compiler's message with the position prefix stripped,
	// e.g. "moved to heap: buf" or "&Event{...} escapes to heap".
	Text string
}

// Facts is the position-indexed fact table of one package.
type Facts struct {
	// Available reports whether the compiler ran successfully; when false
	// (no go toolchain, package failed to build) every query returns empty
	// and the analyzers degrade to silence rather than guessing.
	Available bool
	byLine    map[lineKey][]Fact
	all       []Fact
}

type lineKey struct {
	file string
	line int
}

// All returns every fact in compiler output order.
func (f *Facts) All() []Fact {
	if f == nil {
		return nil
	}
	return f.all
}

// AtLine returns the facts recorded for pos's line, any column. Compiler
// columns point at tokens (the `&` of a literal, the name of a variable)
// that do not always coincide with an AST node's Pos, so line granularity is
// the reliable join key; callers disambiguate by kind and text.
func (f *Facts) AtLine(pos token.Position) []Fact {
	if f == nil || f.byLine == nil {
		return nil
	}
	return f.byLine[lineKey{file: canonFile(pos.Filename), line: pos.Line}]
}

// HeapFactsBetween returns the heap-allocation facts (EscapesToHeap and
// MovedToHeap) whose position falls inside [start, end], both resolved
// through fset. This is the span query hotpath and the allocation budget
// use to attribute allocations to loops and functions.
func (f *Facts) HeapFactsBetween(fset *token.FileSet, start, end token.Pos) []Fact {
	if f == nil {
		return nil
	}
	sp, ep := fset.Position(start), fset.Position(end)
	file := canonFile(sp.Filename)
	var out []Fact
	for _, fact := range f.all {
		if fact.Kind != EscapesToHeap && fact.Kind != MovedToHeap {
			continue
		}
		if fact.File != file {
			continue
		}
		if fact.Line < sp.Line || fact.Line > ep.Line {
			continue
		}
		if fact.Line == sp.Line && fact.Col < sp.Column {
			continue
		}
		if fact.Line == ep.Line && fact.Col > ep.Column {
			continue
		}
		out = append(out, fact)
	}
	return out
}

// HeapEscapeAt reports whether the compiler recorded a heap allocation
// (EscapesToHeap or MovedToHeap) on pos's line.
func (f *Facts) HeapEscapeAt(pos token.Position) (Fact, bool) {
	for _, fact := range f.AtLine(pos) {
		if fact.Kind == EscapesToHeap || fact.Kind == MovedToHeap {
			return fact, true
		}
	}
	return Fact{}, false
}

// ProvedStackAt reports whether the compiler proved an allocation site on
// pos's line stays off the heap (a DoesNotEscape fact with no contradicting
// heap fact on the same line).
func (f *Facts) ProvedStackAt(pos token.Position) bool {
	proved := false
	for _, fact := range f.AtLine(pos) {
		switch fact.Kind {
		case EscapesToHeap, MovedToHeap:
			return false
		case DoesNotEscape:
			proved = true
		}
	}
	return proved
}

// memoKey namespaces per-package fact tables in the module memo.
func memoKey(pkgPath string) string { return "escape:" + pkgPath }

// For returns pkg's fact table, running the compiler on first use and
// caching the result in the module memo. A package that fails to build
// yields an unavailable (empty) table, never an error: the perf analyzers
// are advisory and must not wedge the whole lint run on one bad directory.
func For(mod *analysis.Module, pkg *analysis.Package) *Facts {
	v, _ := mod.Memo(memoKey(pkg.PkgPath), func() (any, error) {
		return compute(pkg), nil
	})
	return v.(*Facts)
}

// ForPass resolves the pass's package inside its module and returns the
// package's fact table. When the pass's package cannot be found (never the
// case for packages loaded by the driver or the fixture harness) an
// unavailable table comes back and the caller goes quiet.
func ForPass(pass *analysis.Pass) *Facts {
	for _, p := range pass.Module.Packages {
		if p.Types == pass.Pkg {
			return For(pass.Module, p)
		}
	}
	return &Facts{}
}

// LinePos converts a fact to a reportable token.Pos in the file containing
// sameFile (the start of the fact's line), so findings derived from
// compiler diagnostics sort and suppress like any other finding. Falls back
// to sameFile when the fact's line is out of range.
func LinePos(fset *token.FileSet, sameFile token.Pos, fact Fact) token.Pos {
	tf := fset.File(sameFile)
	if tf == nil || fact.Line < 1 || fact.Line > tf.LineCount() {
		return sameFile
	}
	return tf.LineStart(fact.Line)
}

// Pos maps fact to its exact source position — line start plus the
// compiler-reported column — so callers can test it against AST spans
// (cold-path carve-outs need column precision: a guard and its body share a
// line in `if err != nil { return err }`). Falls back like LinePos when the
// fact is outside the file.
func Pos(fset *token.FileSet, sameFile token.Pos, fact Fact) token.Pos {
	tf := fset.File(sameFile)
	if tf == nil || fact.Line < 1 || fact.Line > tf.LineCount() {
		return sameFile
	}
	p := tf.LineStart(fact.Line)
	if fact.Col > 1 {
		p += token.Pos(fact.Col - 1)
	}
	if max := token.Pos(tf.Base() + tf.Size()); p > max {
		p = max
	}
	return p
}

// Prewarm computes fact tables for the given packages (typically just the
// ones containing hot functions) with up to workers concurrent compiler
// invocations, then installs them in the module memo. Analyzer passes that
// follow hit the cache; without Prewarm they fall back to building tables
// one at a time on demand. Packages already in the memo are skipped.
func Prewarm(mod *analysis.Module, pkgs []*analysis.Package, workers int) {
	var todo []*analysis.Package
	for _, pkg := range pkgs {
		if !mod.Memoized(memoKey(pkg.PkgPath)) {
			todo = append(todo, pkg)
		}
	}
	if len(todo) == 0 {
		return
	}
	if workers < 1 {
		workers = 1
	}
	type result struct {
		idx   int
		facts *Facts
	}
	jobs := make(chan int)
	results := make(chan result)
	for w := 0; w < workers; w++ {
		go func() {
			// Drains to completion when jobs closes; no cancellation needed
			// for a bounded batch of compiles.
			for i := range jobs {
				results <- result{idx: i, facts: compute(todo[i])}
			}
		}()
	}
	go func() {
		for i := range todo {
			jobs <- i
		}
		close(jobs)
	}()
	tables := make([]*Facts, len(todo))
	for range todo {
		r := <-results
		tables[r.idx] = r.facts
	}
	for i, pkg := range todo {
		facts := tables[i]
		_, _ = mod.Memo(memoKey(pkg.PkgPath), func() (any, error) {
			return facts, nil
		})
	}
}

// compute runs the compiler over one package directory and parses its
// escape/inline diagnostics.
func compute(pkg *analysis.Package) *Facts {
	if pkg.Dir == "" {
		return &Facts{}
	}
	// -l disables inlining for the diagnostic build: with inlining on, the
	// compiler re-reports an inlined callee's escape verdicts at every call
	// site, which would smear one allocation across its callers' lines.
	// The cost is mild conservatism — an allocation the inliner would
	// eliminate in the real build can still surface as a fact; deliberate
	// cases take a reasoned //lint:allow. Inline-decision facts (can
	// inline, inlining call to) appear only when a caller parses output
	// from an inlining-enabled build.
	args := []string{"build", "-gcflags=-m=2 -l"}
	if pkg.Name == "main" {
		// A bare `go build .` in a main package drops the binary into the
		// package directory; route it to a throwaway path instead.
		out, err := os.CreateTemp("", "odbglint-escape-*")
		if err != nil {
			return &Facts{}
		}
		name := out.Name()
		_ = out.Close()
		defer func() { _ = os.Remove(name) }()
		args = append(args, "-o", name)
	}
	args = append(args, ".")
	cmd := exec.Command("go", args...)
	cmd.Dir = pkg.Dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return &Facts{}
	}
	return Parse(stderr.String(), pkg.Dir)
}

// Parse builds a fact table from raw `-m=2` compiler output whose relative
// positions resolve against dir. Exposed for tests over canned output.
func Parse(output, dir string) *Facts {
	f := &Facts{Available: true, byLine: make(map[lineKey][]Fact)}
	sc := bufio.NewScanner(strings.NewReader(output))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		// Skip package banners ("# odbgc/internal/sim") and the indented
		// flow-explanation lines -m=2 appends under each escape verdict.
		if line == "" || line[0] == '#' || line[0] == ' ' || line[0] == '\t' {
			continue
		}
		file, ln, col, msg, ok := splitPosLine(line)
		if !ok {
			continue
		}
		kind, ok := classify(msg)
		if !ok {
			continue
		}
		if !filepath.IsAbs(file) {
			file = filepath.Join(dir, file)
		}
		fact := Fact{File: canonFile(file), Line: ln, Col: col, Kind: kind, Text: strings.TrimSuffix(msg, ":")}
		f.all = append(f.all, fact)
		k := lineKey{file: fact.File, line: fact.Line}
		f.byLine[k] = append(f.byLine[k], fact)
	}
	return f
}

// splitPosLine splits "path.go:12:34: message" into its parts, scanning
// left to right for the first ":<line>:<col>: " run so colons later in the
// message cannot confuse the split.
func splitPosLine(line string) (file string, ln, col int, msg string, ok bool) {
	for i := 0; i < len(line); i++ {
		if line[i] != ':' {
			continue
		}
		tail := line[i+1:]
		j := strings.IndexByte(tail, ':')
		if j <= 0 {
			continue
		}
		lnv, err := strconv.Atoi(tail[:j])
		if err != nil {
			continue
		}
		rest := tail[j+1:]
		k := strings.Index(rest, ": ")
		if k <= 0 {
			continue
		}
		colv, err := strconv.Atoi(rest[:k])
		if err != nil {
			continue
		}
		return line[:i], lnv, colv, rest[k+2:], true
	}
	return "", 0, 0, "", false
}

// classify maps a diagnostic message to its kind.
func classify(msg string) (Kind, bool) {
	switch {
	case strings.HasPrefix(msg, "moved to heap: "):
		return MovedToHeap, true
	case strings.HasSuffix(msg, "escapes to heap") || strings.HasSuffix(msg, "escapes to heap:"):
		return EscapesToHeap, true
	case strings.HasSuffix(msg, "does not escape"):
		return DoesNotEscape, true
	case strings.HasPrefix(msg, "can inline "):
		return CanInline, true
	case strings.HasPrefix(msg, "cannot inline "):
		return CannotInline, true
	case strings.HasPrefix(msg, "inlining call to "):
		return InliningCall, true
	}
	return 0, false
}

// canonFile canonicalizes a filename for index lookups: absolute and
// symlink-free where resolvable.
func canonFile(name string) string {
	if !filepath.IsAbs(name) {
		if abs, err := filepath.Abs(name); err == nil {
			name = abs
		}
	}
	if resolved, err := filepath.EvalSymlinks(name); err == nil {
		name = resolved
	}
	return name
}
