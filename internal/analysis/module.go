package analysis

import "go/token"

// Module is the whole-program view a dataflow analyzer sees: every package
// the driver loaded for this run, plus lazily built module-wide artifacts
// (the call graph, sink indexes) shared across analyzers through Memo.
//
// Single-package runs — the analysistest harness, a driver invocation on one
// directory — get a Module containing just that package, so interprocedural
// analyzers degrade gracefully to intra-package analysis instead of needing
// a separate code path.
type Module struct {
	Packages []*Package

	memo   map[string]any
	allows []*Suppressions // one per package, built by the first AllowedAt
}

// NewModule wraps the loaded packages for module-wide analysis.
func NewModule(pkgs []*Package) *Module {
	return &Module{Packages: pkgs, memo: make(map[string]any)}
}

// Memo returns the cached artifact under key, building it on first use.
// Analyzers use it to share one call graph (or other whole-module indexes)
// across the analyzer suite instead of rebuilding per pass.
func (m *Module) Memo(key string, build func() (any, error)) (any, error) {
	if v, ok := m.memo[key]; ok {
		return v, nil
	}
	v, err := build()
	if err != nil {
		return nil, err
	}
	m.memo[key] = v
	return v, nil
}

// Memoized reports whether key already has a cached artifact — batch
// prewarmers use it to skip work another path already did.
func (m *Module) Memoized(key string) bool {
	_, ok := m.memo[key]
	return ok
}

// AllowedAt reports whether a well-formed //lint:allow comment for the named
// analyzer covers pos, looking across every package of the module. Unlike
// the per-package suppression filter applied to findings, this lets a
// transitive analyzer honor a suppression at its *sink*: a wall-clock read
// annotated //lint:allow detrand stops being a forbidden endpoint for
// detrand's whole-chain search, so one reasoned allow covers every caller
// instead of demanding one per chain.
func (m *Module) AllowedAt(analyzer string, pos token.Position) bool {
	if m.allows == nil {
		for _, pkg := range m.Packages {
			m.allows = append(m.allows, CollectSuppressions(pkg.Fset, pkg.Files, nil))
		}
	}
	for _, s := range m.allows {
		if s.Allowed(analyzer, pos) {
			return true
		}
	}
	return false
}
