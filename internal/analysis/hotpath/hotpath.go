// Package hotpath marks the module's hot region: the set of functions whose
// per-event or per-iteration cost shows up in the benchmarks the roadmap
// tracks. The region is seeded three ways and closed transitively over the
// module call graph:
//
//  1. Benchmark bodies — any `BenchmarkX(b *testing.B)` function. The
//     module loader skips _test.go files, so in the real repo this seed
//     fires only for fixtures, but it makes the marker self-describing:
//     whatever a benchmark exercises is, by definition, measured.
//  2. A curated root table naming the simulator, trace-codec, generator and
//     server entry points whose inner loops dominate the layer benchmarks
//     (BenchmarkReplay* in internal/sim, BenchmarkTraceCodec in
//     internal/trace, BenchmarkTraceGeneration in internal/oo7) and the
//     repository benchmark's workloads.
//  3. The cfg loop inventory — any function in a hot package containing an
//     unbounded `for {` loop (server engine loop, stream decoders, observer
//     flushers): an unbounded loop in serving code is a hot loop whether or
//     not a benchmark reaches it yet.
//
// Everything a seed can transitively call is hot too, mirroring how cost
// flows at run time. The package's analyzer (analyzer.go: allocation,
// boxing, defer and append-growth checks) and the allocation-budget gate
// consult this region so a heap allocation in setup code stays legal while
// the same line inside Simulator.Step is a finding.
package hotpath

import (
	"go/types"
	"strings"

	"odbgc/internal/analysis"
	"odbgc/internal/analysis/callgraph"
	"odbgc/internal/analysis/cfg"
)

// roots curates the non-benchmark hot entry points, keyed by package path
// tail (matched with analysis.PathCovered so the module prefix and fixture
// pseudo-paths both resolve). Names are plain function or method names
// within that package.
var roots = map[string][]string{
	"internal/sim":      {"Run", "RunContext", "RunStream", "RunStreamContext", "Step"},
	"internal/trace":    {"Read", "Write", "ReadAll", "ReadAllLenient", "WriteAll"},
	"internal/oo7":      {"FullTrace", "GenDB"},
	"internal/server":   {"Run", "process", "apply"},
	"internal/obs/span": {"Start", "Finish", "PinID"},
	// The durable write path runs once per logical mutation (WAL record
	// staging and group commit) or once per flushed page (checksum seal
	// and verify); both are billed to requests, so both must stay lean.
	"internal/storage/disk": {
		"LogAlloc", "LogSet", "LogRoot", "LogReclaim", "Commit",
		"sealPage", "openPage",
	},
}

// loopPkgs lists the packages whose unbounded `for {` loops seed the region
// (source 3). Deliberately the serving/decoding surface, not cmd/ main
// loops, whose iterations are human-scale.
var loopPkgs = []string{
	"internal/sim", "internal/trace", "internal/oo7",
	"internal/server", "internal/obs", "internal/gc",
}

// Region answers "is this function hot, and why" for one module load.
type Region struct {
	marks map[*types.Func]*mark
	// loopHot marks the subset of the region whose every call is a
	// per-iteration cost: functions invoked from inside a loop of a hot
	// function, closed transitively through all their call sites. An
	// allocation anywhere in a loop-hot function happens once per hot
	// iteration even though the function body itself has no loop — the
	// per-event observer emit and trace Read are the canonical cases.
	loopHot map[*types.Func]bool
	// cold caches each marked function's error-path spans (see coldpath.go);
	// the closure refuses to propagate hotness through a call site inside
	// one, so error-formatting helpers stay out of the region.
	cold map[*types.Func][]Span
}

// mark records how a function entered the region: seeds carry a reason and
// no via edge; transitively-marked functions carry the edge that reached
// them first (BFS order, so chains are shortest and deterministic).
type mark struct {
	reason string
	via    *callgraph.Edge
	prev   *types.Func
}

// memoKey namespaces the region in the module memo.
const memoKey = "hotpath"

// For returns the module's hot region, building it on first use and sharing
// it across analyzers through the module memo.
func For(mod *analysis.Module) *Region {
	v, _ := mod.Memo(memoKey, func() (any, error) {
		return build(mod), nil
	})
	return v.(*Region)
}

// Hot reports whether fn is in the hot region.
func (r *Region) Hot(fn *types.Func) bool {
	if r == nil || fn == nil {
		return false
	}
	_, ok := r.marks[fn]
	return ok
}

// LoopHot reports whether fn runs once per hot-loop iteration: it is called
// from inside a loop of a hot function, directly or through any chain of
// further calls. The allocation and boxing checks treat a loop-hot
// function's whole body as loop territory.
func (r *Region) LoopHot(fn *types.Func) bool {
	if r == nil || fn == nil {
		return false
	}
	return r.loopHot[fn]
}

// Why returns the seed reason that made fn hot (following the chain back to
// its seed), or "" when fn is not hot.
func (r *Region) Why(fn *types.Func) string {
	m, ok := r.marks[fn]
	if !ok {
		return ""
	}
	for m.via != nil {
		m = r.marks[m.prev]
	}
	return m.reason
}

// Chain renders the call chain from fn's seed down to fn, e.g.
// "Simulator.Run -> Simulator.Step -> Heap.Create", for diagnostics. A seed
// renders as its own name.
func (r *Region) Chain(fn *types.Func) string {
	m, ok := r.marks[fn]
	if !ok {
		return ""
	}
	names := []string{funcName(fn)}
	for m.via != nil {
		names = append([]string{funcName(m.prev)}, names...)
		m = r.marks[m.prev]
	}
	return strings.Join(names, " -> ")
}

// Functions lists the hot functions in deterministic (marking) order —
// the allocation budget iterates this.
func (r *Region) Functions(g *callgraph.Graph) []*callgraph.Node {
	var out []*callgraph.Node
	for _, n := range g.Nodes() {
		if r.Hot(n.Func) {
			out = append(out, n)
		}
	}
	return out
}

// funcName renders Type.Method or Func without the package qualifier.
func funcName(fn *types.Func) string {
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return named.Obj().Name() + "." + fn.Name()
		}
	}
	return fn.Name()
}

func build(mod *analysis.Module) *Region {
	g := callgraph.For(mod)
	r := &Region{
		marks:   make(map[*types.Func]*mark),
		loopHot: make(map[*types.Func]bool),
		cold:    make(map[*types.Func][]Span),
	}
	for _, n := range g.Nodes() {
		reason, ok := seedReason(n)
		if !ok {
			continue
		}
		if _, seen := r.marks[n.Func]; seen {
			continue
		}
		r.marks[n.Func] = &mark{reason: reason}
		r.close(n)
	}
	r.closeLoops(g)
	return r
}

// closeLoops computes the loop-hot subset: callees of call sites inside a
// hot function's loops seed it, and because every call of a loop-hot
// function is itself per-iteration work, all its own callees follow.
func (r *Region) closeLoops(g *callgraph.Graph) {
	var work []*callgraph.Node
	markNode := func(n *callgraph.Node) {
		if !r.loopHot[n.Func] {
			r.loopHot[n.Func] = true
			work = append(work, n)
		}
	}
	for _, n := range g.Nodes() {
		if !r.Hot(n.Func) || n.Decl == nil || n.Decl.Body == nil {
			continue
		}
		// A benchmark's b.N loop is the measurement harness, not workload:
		// the function it measures runs once per sample, so the measured
		// callee is hot but not per-iteration inside itself.
		if isBenchmark(n.Func) {
			continue
		}
		loops := cfg.New(n.Decl.Body).Loops
		if len(loops) == 0 {
			continue
		}
		for _, e := range n.Out {
			pos := e.Site.Pos()
			if InSpans(r.coldOf(n), pos) {
				continue
			}
			for _, loop := range loops {
				if loop.Stmt.Pos() <= pos && pos < loop.Stmt.End() {
					markNode(e.Callee)
					break
				}
			}
		}
	}
	for len(work) > 0 {
		n := work[0]
		work = work[1:]
		for _, e := range n.Out {
			if InSpans(r.coldOf(n), e.Site.Pos()) {
				continue
			}
			markNode(e.Callee)
		}
	}
}

// coldOf caches ColdSpans per function across the two closures.
func (r *Region) coldOf(n *callgraph.Node) []Span {
	if spans, ok := r.cold[n.Func]; ok {
		return spans
	}
	var spans []Span
	if n.Decl != nil {
		spans = ColdSpans(n.Pkg.Info, n.Decl)
	}
	r.cold[n.Func] = spans
	return spans
}

// close BFS-marks everything reachable from seed that is not already hot,
// refusing to follow call sites on cold (error-path) spans: a function
// reachable only from error handling is not hot.
func (r *Region) close(seed *callgraph.Node) {
	work := []*callgraph.Node{seed}
	for len(work) > 0 {
		n := work[0]
		work = work[1:]
		for _, e := range n.Out {
			if _, seen := r.marks[e.Callee.Func]; seen {
				continue
			}
			if InSpans(r.coldOf(n), e.Site.Pos()) {
				continue
			}
			r.marks[e.Callee.Func] = &mark{via: e, prev: n.Func}
			work = append(work, e.Callee)
		}
	}
}

// seedReason decides whether a declared function seeds the hot region.
func seedReason(n *callgraph.Node) (string, bool) {
	if isBenchmark(n.Func) {
		return "benchmark " + n.Func.Name(), true
	}
	pkgPath := n.Pkg.PkgPath
	for tail, names := range roots {
		if !analysis.PathCovered(pkgPath, []string{tail}) {
			continue
		}
		for _, name := range names {
			if n.Func.Name() == name {
				return "hot root " + funcName(n.Func), true
			}
		}
	}
	if analysis.PathCovered(pkgPath, loopPkgs) && hasUnboundedLoop(n) {
		return "unbounded loop in " + funcName(n.Func), true
	}
	return "", false
}

// isBenchmark recognizes BenchmarkX(b *testing.B).
func isBenchmark(fn *types.Func) bool {
	if !strings.HasPrefix(fn.Name(), "Benchmark") {
		return false
	}
	sig := fn.Type().(*types.Signature)
	if sig.Recv() != nil || sig.Params().Len() != 1 {
		return false
	}
	ptr, ok := sig.Params().At(0).Type().(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "B" && obj.Pkg() != nil && obj.Pkg().Path() == "testing"
}

// hasUnboundedLoop consults the function's CFG loop inventory.
func hasUnboundedLoop(n *callgraph.Node) bool {
	if n.Decl == nil || n.Decl.Body == nil {
		return false
	}
	for _, loop := range cfg.New(n.Decl.Body).Loops {
		if loop.Unbounded {
			return true
		}
	}
	return false
}
