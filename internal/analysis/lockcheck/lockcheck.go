// Package lockcheck enforces mutex discipline over the intra-procedural
// control-flow graph, the static counterpart to the -race runs in CI (which
// only see executed interleavings):
//
//   - every sync.Mutex/RWMutex Lock must reach a matching Unlock on every
//     path to the function exit — a `defer mu.Unlock()` satisfies all paths
//     at once, a manual Unlock must appear on each branch;
//   - no path may Lock a mutex it already holds (Lock-Lock, Lock-RLock, and
//     RLock-Lock on the same receiver all self-deadlock; RLock-RLock is
//     left alone — legal, if inadvisable);
//   - a lock value must never be copied: value receivers, by-value
//     parameters, assignments, and call arguments whose type contains a
//     mutex are all findings (a copied mutex is a different mutex);
//   - in the concurrent packages (analysis.ConcurrentDirs — the serving
//     engine, the storage manager + WAL, the observability stack) no blocking
//     operation may run while a mutex is held: channel sends and receives,
//     WaitGroup/Cond waits, sleeps, and I/O writes to external writers,
//     found directly or through the module call graph (the finding then
//     carries the call chain to the sink).
//
// The path analysis is a DFS over the CFG with a (held, deferred) state per
// lock site, so early returns, branch-specific unlocks, and loops are all
// walked exactly as control flow allows.
package lockcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"odbgc/internal/analysis"
	"odbgc/internal/analysis/callgraph"
	"odbgc/internal/analysis/cfg"
)

// Analyzer is the lockcheck check.
var Analyzer = &analysis.Analyzer{
	Name: "lockcheck",
	Doc:  "require Unlock on all paths, forbid double-lock, lock copies, and blocking calls under a hot-package mutex",
	Run:  run,
}

type evKind int

const (
	evLock evKind = iota
	evRLock
	evUnlock
	evRUnlock
	evDeferUnlock
	evDeferRUnlock
	evBlocking
)

// event is one lock-relevant operation inside a basic block, in source
// order. key identifies the mutex by its access path (e.g. "s.mu"); for
// evBlocking it is unused and desc/chain describe the sink instead.
type event struct {
	kind  evKind
	key   string
	pos   token.Pos
	desc  string
	chain []string
}

func run(pass *analysis.Pass) error {
	covered := analysis.PathCovered(pass.Pkg.Path(), analysis.ConcurrentDirs)
	var facts map[*types.Func]*blockFact
	if covered {
		facts = blockingFacts(pass.Module)
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			checkCopies(pass, fd)
			if fd.Body == nil {
				continue
			}
			checkFunc(pass, fd.Body, covered, facts)
			// Function literals get their own CFG: a closure runs on its
			// own schedule, so its lock discipline is checked separately.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					checkFunc(pass, lit.Body, covered, facts)
				}
				return true
			})
		}
	}
	return nil
}

// checkFunc walks one body's CFG, extracting lock events per block and
// simulating every Lock site forward.
func checkFunc(pass *analysis.Pass, body *ast.BlockStmt, covered bool, facts map[*types.Func]*blockFact) {
	flow := cfg.New(body)
	exempt := nonBlockingComms(body)
	events := make(map[*cfg.Block][]event)
	any := false
	for _, b := range flow.Blocks {
		evs := extractEvents(pass, b, covered, facts, exempt)
		if len(evs) > 0 {
			events[b] = evs
			any = true
		}
	}
	if !any {
		return
	}
	for _, b := range flow.Blocks {
		for i, ev := range events[b] {
			if ev.kind == evLock || ev.kind == evRLock {
				simulate(pass, flow, events, b, i, ev)
			}
		}
	}
}

// simulate runs a DFS from just after the lock event, tracking whether the
// lock is still held and whether a deferred unlock will release it at exit.
func simulate(pass *analysis.Pass, flow *cfg.Graph, events map[*cfg.Block][]event, start *cfg.Block, idx int, lock event) {
	read := lock.kind == evRLock
	type frame struct {
		block    *cfg.Block
		idx      int // first event index to process
		deferred bool
	}
	type visitKey struct {
		block    *cfg.Block
		deferred bool
	}
	visited := map[visitKey]bool{}
	reported := map[token.Pos]bool{}
	leaked := false
	stack := []frame{{block: start, idx: idx + 1, deferred: false}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		deferred := f.deferred
		released := false
		for _, ev := range events[f.block][f.idx:] {
			if ev.kind == evBlocking {
				if !reported[ev.pos] {
					reported[ev.pos] = true
					msg := ev.desc + " while " + lock.key + " is held; release the lock first or move the operation out of the critical section"
					pass.Report(analysis.Diagnostic{Pos: ev.pos, Message: msg, Chain: ev.chain})
				}
				continue
			}
			if ev.key != lock.key {
				continue
			}
			switch ev.kind {
			case evLock, evRLock:
				// RLock-RLock is legal; every other re-acquire self-deadlocks.
				if !(read && ev.kind == evRLock) {
					if !reported[ev.pos] {
						reported[ev.pos] = true
						pass.Reportf(ev.pos, "%s is locked again on a path where it is already held (locked at line %d); this deadlocks",
							lock.key, pass.Fset.Position(lock.pos).Line)
					}
					released = true // stop this path; the report covers it
				}
			case evUnlock:
				if !read {
					released = true
				}
			case evRUnlock:
				if read {
					released = true
				}
			case evDeferUnlock:
				if !read {
					deferred = true
				}
			case evDeferRUnlock:
				if read {
					deferred = true
				}
			}
			if released {
				break
			}
		}
		if released {
			continue
		}
		for _, succ := range f.block.Succs {
			if succ == flow.Exit {
				if !deferred && !leaked {
					leaked = true
					pass.Reportf(lock.pos, "%s is locked here but not released on every path to return; add the missing Unlock or use defer", lock.key)
				}
				continue
			}
			k := visitKey{block: succ, deferred: deferred}
			if !visited[k] {
				visited[k] = true
				stack = append(stack, frame{block: succ, idx: 0, deferred: deferred})
			}
		}
	}
}

// extractEvents lists the lock-relevant operations of one block in source
// order, not descending into function literals (they have their own CFG).
func extractEvents(pass *analysis.Pass, b *cfg.Block, covered bool, facts map[*types.Func]*blockFact, exempt map[ast.Node]bool) []event {
	var evs []event
	for _, node := range b.Nodes {
		if rs, ok := node.(*ast.RangeStmt); ok {
			// The range-head block carries the whole statement, but only
			// the ranged expression evaluates here — the body has its own
			// blocks. Ranging over a channel is a blocking receive.
			if covered {
				if tv, ok := pass.TypesInfo.Types[rs.X]; ok {
					if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
						evs = append(evs, event{kind: evBlocking, pos: rs.X.Pos(), desc: "channel receive (range)"})
					}
				}
			}
			node = rs.X
		}
		ast.Inspect(node, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.GoStmt:
				return false // the spawned call does not run inline
			case *ast.DeferStmt:
				if key, kind, ok := mutexCall(pass.TypesInfo, n.Call); ok {
					switch kind {
					case evUnlock:
						evs = append(evs, event{kind: evDeferUnlock, key: key, pos: n.Pos()})
					case evRUnlock:
						evs = append(evs, event{kind: evDeferRUnlock, key: key, pos: n.Pos()})
					}
				}
				return false // deferred work runs at return, not here
			case *ast.SendStmt:
				if covered && !exempt[n] {
					evs = append(evs, event{kind: evBlocking, pos: n.Pos(), desc: "channel send"})
				}
			case *ast.UnaryExpr:
				if n.Op == token.ARROW && covered && !exempt[n] {
					evs = append(evs, event{kind: evBlocking, pos: n.Pos(), desc: "channel receive"})
				}
			case *ast.CallExpr:
				if key, kind, ok := mutexCall(pass.TypesInfo, n); ok {
					evs = append(evs, event{kind: kind, key: key, pos: n.Pos()})
					return true
				}
				if !covered {
					return true
				}
				callee := callgraph.Callee(pass.TypesInfo, n)
				if callee == nil {
					return true
				}
				if desc, ok := builtinBlocking(pass.TypesInfo, callee, n); ok {
					evs = append(evs, event{kind: evBlocking, pos: n.Pos(), desc: desc})
					return true
				}
				if bf := facts[callee]; bf != nil {
					evs = append(evs, event{
						kind:  evBlocking,
						pos:   n.Pos(),
						desc:  "call to " + callee.Name() + " which " + bf.desc + " (via " + strings.Join(bf.chain, " -> ") + ")",
						chain: bf.chain,
					})
				}
			}
			return true
		})
	}
	return evs
}

// nonBlockingComms collects the comm statements and receive expressions of
// every select that has a default clause: such a select never blocks, so
// its cases are not blocking operations.
func nonBlockingComms(body *ast.BlockStmt) map[ast.Node]bool {
	exempt := map[ast.Node]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		hasDefault := false
		for _, cs := range sel.Body.List {
			if cc, ok := cs.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			return true
		}
		for _, cs := range sel.Body.List {
			cc, ok := cs.(*ast.CommClause)
			if !ok || cc.Comm == nil {
				continue
			}
			exempt[cc.Comm] = true
			ast.Inspect(cc.Comm, func(m ast.Node) bool {
				if u, ok := m.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
					exempt[u] = true
				}
				return true
			})
		}
		return true
	})
	return exempt
}

// mutexCall classifies a call as a sync.Mutex/RWMutex lock operation and
// returns the receiver's access path as the lock key.
func mutexCall(info *types.Info, call *ast.CallExpr) (string, evKind, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", 0, false
	}
	fn := callgraph.Callee(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", 0, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", 0, false
	}
	recv := sig.Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return "", 0, false
	}
	tn := named.Obj().Name()
	if tn != "Mutex" && tn != "RWMutex" {
		return "", 0, false
	}
	var kind evKind
	switch fn.Name() {
	case "Lock":
		kind = evLock
	case "RLock":
		kind = evRLock
	case "Unlock":
		kind = evUnlock
	case "RUnlock":
		kind = evRUnlock
	default:
		return "", 0, false
	}
	return types.ExprString(sel.X), kind, true
}

// builtinBlocking classifies calls whose callee is known to block: waits,
// sleeps, and writes that leave the process. fmt.Fprint* into an in-memory
// buffer is exempt — that is the sanctioned way to render under a lock.
func builtinBlocking(info *types.Info, fn *types.Func, call *ast.CallExpr) (string, bool) {
	pkg := fn.Pkg()
	if pkg == nil {
		return "", false
	}
	switch pkg.Path() {
	case "time":
		if fn.Name() == "Sleep" {
			return "blocks in time.Sleep", true
		}
	case "sync":
		if fn.Name() == "Wait" {
			return "blocks in sync." + recvTypeName(fn) + ".Wait", true
		}
	case "fmt":
		if strings.HasPrefix(fn.Name(), "Fprint") && len(call.Args) > 0 && !inMemoryWriter(info, call.Args[0]) {
			return "writes to an external io.Writer via fmt." + fn.Name(), true
		}
	case "io":
		if fn.Name() == "Copy" || fn.Name() == "WriteString" {
			return "performs I/O via io." + fn.Name(), true
		}
	case "net":
		return "performs network I/O via net." + recvTypeName(fn) + "." + fn.Name(), true
	case "os":
		if recvTypeName(fn) == "File" {
			switch fn.Name() {
			case "Read", "ReadAt", "Write", "WriteAt", "WriteString", "Sync":
				return "performs file I/O via os.File." + fn.Name(), true
			}
		}
	}
	return "", false
}

func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// inMemoryWriter reports whether the expression's type is a purely
// in-memory writer (*bytes.Buffer or *strings.Builder).
func inMemoryWriter(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok {
		return false
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	switch {
	case obj.Pkg().Path() == "bytes" && obj.Name() == "Buffer":
		return true
	case obj.Pkg().Path() == "strings" && obj.Name() == "Builder":
		return true
	}
	return false
}

// blockFact records, for a declared function, the evidence that calling it
// can block: a one-line description of the sink and the call chain from the
// function down to it (the function itself first, sink description last).
type blockFact struct {
	desc  string
	chain []string
}

// blockingFacts computes, once per module, the set of declared functions
// that can block: those whose own bodies (outside function literals)
// contain a blocking operation, plus everything that reaches one through
// ordinary (non-go) call edges in the module call graph.
func blockingFacts(mod *analysis.Module) map[*types.Func]*blockFact {
	v, _ := mod.Memo("lockcheck.blocking", func() (any, error) {
		g := callgraph.For(mod)
		// Call sites under a go statement do not block the caller.
		goSites := map[*ast.CallExpr]bool{}
		for _, n := range g.Nodes() {
			ast.Inspect(n.Decl, func(node ast.Node) bool {
				if gs, ok := node.(*ast.GoStmt); ok {
					goSites[gs.Call] = true
				}
				return true
			})
		}
		facts := map[*types.Func]*blockFact{}
		for _, n := range g.Nodes() {
			if desc, ok := directBlocking(n); ok {
				facts[n.Func] = &blockFact{desc: desc, chain: []string{n.Func.Name(), desc}}
			}
		}
		for changed := true; changed; {
			changed = false
			for _, n := range g.Nodes() {
				if facts[n.Func] != nil {
					continue
				}
				for _, e := range n.Out {
					if goSites[e.Site] {
						continue
					}
					bf := facts[e.Callee.Func]
					if bf == nil {
						continue
					}
					facts[n.Func] = &blockFact{
						desc:  bf.desc,
						chain: append([]string{n.Func.Name()}, bf.chain...),
					}
					changed = true
					break
				}
			}
		}
		return facts, nil
	})
	return v.(map[*types.Func]*blockFact)
}

// directBlocking reports whether the function's own body, outside function
// literals and go statements, contains a blocking operation.
func directBlocking(n *callgraph.Node) (string, bool) {
	if n.Decl.Body == nil {
		return "", false
	}
	info := n.Pkg.Info
	exempt := nonBlockingComms(n.Decl.Body)
	desc, found := "", false
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		if found {
			return false
		}
		switch node := node.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.RangeStmt:
			if tv, ok := info.Types[node.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					desc, found = "receives from a channel", true
				}
			}
		case *ast.SendStmt:
			if !exempt[node] {
				desc, found = "sends on a channel", true
			}
		case *ast.UnaryExpr:
			if node.Op == token.ARROW && !exempt[node] {
				desc, found = "receives from a channel", true
			}
		case *ast.CallExpr:
			if fn := callgraph.Callee(info, node); fn != nil {
				if d, ok := builtinBlocking(info, fn, node); ok {
					desc, found = d, true
				}
			}
		}
		return !found
	})
	return desc, found
}

// checkCopies reports lock values copied by value: value receivers and
// parameters whose type contains a mutex, assignments that copy an existing
// lock-bearing value, and call arguments passing one by value.
func checkCopies(pass *analysis.Pass, fd *ast.FuncDecl) {
	// The seen map is a cycle guard, so every query starts fresh.
	contains := func(t types.Type) bool { return containsLock(t, map[types.Type]bool{}) }

	if fd.Recv != nil {
		for _, f := range fd.Recv.List {
			if t := pass.TypesInfo.TypeOf(f.Type); t != nil && contains(t) {
				pass.Reportf(f.Pos(), "method %s has a value receiver whose type contains a mutex; a copied mutex is a different mutex — use a pointer receiver", fd.Name.Name)
			}
		}
	}
	if fd.Type.Params != nil {
		for _, f := range fd.Type.Params.List {
			if t := pass.TypesInfo.TypeOf(f.Type); t != nil && contains(t) {
				pass.Reportf(f.Pos(), "parameter of %s passes a mutex-bearing value by value; pass a pointer", fd.Name.Name)
			}
		}
	}
	if fd.Body == nil {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, rhs := range n.Rhs {
				if copiesLockValue(pass.TypesInfo, rhs, contains) {
					pass.Reportf(rhs.Pos(), "assignment copies a value containing a mutex; take a pointer instead")
				}
			}
		case *ast.CallExpr:
			if _, _, ok := mutexCall(pass.TypesInfo, n); ok {
				return true
			}
			for _, arg := range n.Args {
				if copiesLockValue(pass.TypesInfo, arg, contains) {
					pass.Reportf(arg.Pos(), "call passes a value containing a mutex by value; pass a pointer")
				}
			}
		}
		return true
	})
}

// copiesLockValue reports whether evaluating e copies an existing
// lock-bearing value: e reads a variable, field, element, or dereference of
// non-pointer type containing a mutex. Fresh values (composite literals,
// call results) and pointers are fine.
func copiesLockValue(info *types.Info, e ast.Expr, contains func(types.Type) bool) bool {
	switch ast.Unparen(e).(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.StarExpr, *ast.IndexExpr:
	default:
		return false
	}
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	if _, isPtr := tv.Type.(*types.Pointer); isPtr {
		return false
	}
	return contains(tv.Type)
}

// containsLock reports whether t contains a sync.Mutex or sync.RWMutex,
// directly or through struct fields and array elements.
func containsLock(t types.Type, seen map[types.Type]bool) bool {
	if t == nil || seen[t] {
		return false
	}
	seen[t] = true
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "sync" && (obj.Name() == "Mutex" || obj.Name() == "RWMutex") {
			return true
		}
		return containsLock(named.Underlying(), seen)
	}
	switch t := t.(type) {
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if containsLock(t.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return containsLock(t.Elem(), seen)
	}
	return false
}
