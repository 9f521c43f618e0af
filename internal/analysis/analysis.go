// Package analysis is a minimal, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis surface that the odbglint suite needs.
//
// The repository builds on the standard library only, so the real x/tools
// module is deliberately not imported; this package mirrors its shape
// (Analyzer, Pass, Diagnostic, a multichecker-style driver, and an
// analysistest-style fixture harness in the sibling analysistest package) so
// that the analyzers could be ported to the upstream API by changing imports
// alone. The simulator's reproducibility contract — seeded randomness only,
// no wall-clock reads, no map-iteration-order leaks, panic-free library
// boundaries — is enforced by the analyzers under
// internal/analysis/{detrand,maporder,nopanic}; snapshot coverage is held at
// run time by the snapshot round-trip and resume tests.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check. It mirrors x/tools' analysis.Analyzer:
// Name appears in findings and in //lint:allow comments, Doc is the one-line
// description shown by the driver, and Run inspects a single package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Pass carries one package's syntax and type information to an analyzer,
// plus the Report callback that records findings. Module widens the view to
// every package of the run for the interprocedural analyzers; it is never
// nil (single-package runs get a one-package module).
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Module    *Module
	Report    func(Diagnostic)
}

// Diagnostic is a single finding at a source position. Chain, when set,
// names the call path an interprocedural analyzer followed to the sink
// (caller first); the driver's -json output carries it so CI artifacts keep
// the evidence, not just the verdict.
type Diagnostic struct {
	Pos     token.Pos
	Message string
	Chain   []string
}

// Reportf reports a formatted finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Finding is a resolved diagnostic: a concrete file position plus the
// analyzer that produced it. The driver and the test harness both work in
// findings so suppression and sorting behave identically everywhere.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
	// Chain is the call path to the sink for interprocedural findings
	// (caller first, sink last); empty for local findings.
	Chain []string
}

// String formats the finding the way the driver prints it.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}
