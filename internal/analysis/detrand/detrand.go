// Package detrand forbids nondeterministic inputs — unseeded global
// randomness, wall-clock reads, environment-driven behavior — inside the
// packages whose output the simulator promises to reproduce bit for bit.
//
// The trace-driven simulation is only replayable (and PR 1's checkpoint
// resume only bit-identical) because every random choice flows from a seed
// threaded through a constructor and nothing consults the clock or the
// process environment. detrand turns that convention into a build-time
// error: inside the deterministic packages, calls to the global math/rand
// functions, to time.Now and friends, and to os.Getenv-style lookups are
// findings. Seeded *rand.Rand construction (rand.New, rand.NewSource,
// rand.NewZipf) stays legal. The same endpoints reached through a chain of
// calls — into an uncovered package, say — are findings too, at the call
// that leaves the function (transitive.go).
package detrand

import (
	"fmt"
	"go/ast"
	"go/types"

	"odbgc/internal/analysis"
)

// Analyzer is the detrand check.
var Analyzer = &analysis.Analyzer{
	Name: "detrand",
	Doc:  "forbid unseeded randomness, wall-clock reads, and env lookups in deterministic packages, directly or through a call chain",
	Run:  run,
}

// DeterministicDirs names the package directories (relative to the module
// root) that must stay deterministic. A package is covered when one of
// these appears as a complete path-segment run inside its import path.
var DeterministicDirs = []string{
	"internal/core",
	"internal/gc",
	"internal/sim",
	"internal/oo7",
	"internal/trace",
	"internal/workload",
	"internal/fault",
	"internal/objstore",
	"internal/storage",
	"internal/obs",
	"internal/simerr",
}

// covered reports whether pkgPath is one of the deterministic packages or a
// subpackage of one.
func covered(pkgPath string) bool {
	return analysis.PathCovered(pkgPath, DeterministicDirs)
}

// randConstructors are the math/rand and math/rand/v2 functions that build
// seeded generators; everything else at package level draws from the shared
// unseeded source.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true,
	"NewChaCha8": true,
}

// timeForbidden are the time functions that read or depend on the wall
// clock. Pure conversions and constants (time.Duration, time.Millisecond)
// remain fine.
var timeForbidden = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

// osForbidden are the os functions that read the process environment.
var osForbidden = map[string]bool{
	"Getenv":    true,
	"LookupEnv": true,
	"Environ":   true,
	"ExpandEnv": true,
}

// forbidden classifies a call against the nondeterminism rules. For one of
// the forbidden endpoints it returns the sink's short description for chain
// findings ("time.Now (wall clock)"), the finding to report where the call
// is written in a deterministic package itself, and true.
func forbidden(info *types.Info, call *ast.CallExpr) (sink, direct string, ok bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", "", false
	}
	ident, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", "", false
	}
	pkgName, ok := info.Uses[ident].(*types.PkgName)
	if !ok {
		return "", "", false
	}
	name := sel.Sel.Name
	switch pkgName.Imported().Path() {
	case "math/rand", "math/rand/v2":
		if pkg := pkgName.Imported().Name(); !randConstructors[name] {
			return fmt.Sprintf("%s.%s (unseeded randomness)", pkg, name),
				fmt.Sprintf("call to global %s.%s in deterministic package; use a seeded *rand.Rand threaded through the constructor", pkg, name), true
		}
	case "time":
		if timeForbidden[name] {
			return fmt.Sprintf("time.%s (wall clock)", name),
				fmt.Sprintf("time.%s reads the wall clock in a deterministic package; simulated time must come from the trace", name), true
		}
	case "os":
		if osForbidden[name] {
			return fmt.Sprintf("os.%s (environment)", name),
				fmt.Sprintf("os.%s makes behavior depend on the environment in a deterministic package; pass configuration explicitly", name), true
		}
	}
	return "", "", false
}

func run(pass *analysis.Pass) error {
	if !covered(pass.Pkg.Path()) {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if _, direct, ok := forbidden(pass.TypesInfo, call); ok {
					pass.Reportf(call.Pos(), "%s", direct)
				}
			}
			return true
		})
	}
	runTransitive(pass)
	return nil
}
