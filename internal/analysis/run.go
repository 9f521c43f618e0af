package analysis

import (
	"sort"
)

// RunPackage applies the analyzers to one loaded package, filters the
// results through the package's //lint:allow comments, and returns the
// surviving findings sorted by position. Malformed allow comments are
// themselves findings, so a suppression can never silently rot. The package
// is analyzed as a one-package module; use RunPackages for whole-module
// dataflow.
func RunPackage(pkg *Package, analyzers []*Analyzer) ([]Finding, error) {
	return runPackage(NewModule([]*Package{pkg}), pkg, analyzers)
}

// KnownAllowNames extends the analyzer-name set //lint:allow directives may
// reference. A driver running a filtered subset of a larger suite (odbglint
// -only) registers the full suite here so a suppression for an unselected
// analyzer is not misreported as unknown.
var KnownAllowNames []string

func runPackage(mod *Module, pkg *Package, analyzers []*Analyzer) ([]Finding, error) {
	known := make(map[string]bool, len(analyzers)+len(KnownAllowNames))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	for _, name := range KnownAllowNames {
		known[name] = true
	}
	fset := pkg.Fset
	sup := CollectSuppressions(fset, pkg.Files, known)

	var out []Finding
	out = append(out, sup.Malformed()...)
	for _, a := range analyzers {
		var diags []Diagnostic
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Module:    mod,
			Report:    func(d Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, err
		}
		for _, d := range diags {
			pos := fset.Position(d.Pos)
			if sup.Allowed(a.Name, pos) {
				continue
			}
			out = append(out, Finding{Pos: pos, Analyzer: a.Name, Message: d.Message, Chain: d.Chain})
		}
	}
	sortFindings(out)
	return out, nil
}

// RunPackages applies the analyzers to every package and concatenates the
// findings in deterministic order. All packages share one Module, so the
// interprocedural analyzers (errflow's wrap discipline, detrand's chain
// search) see the complete call graph of the run.
func RunPackages(pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	mod := NewModule(pkgs)
	var out []Finding
	for _, pkg := range mod.Packages {
		fs, err := runPackage(mod, pkg, analyzers)
		if err != nil {
			return nil, err
		}
		out = append(out, fs...)
	}
	sortFindings(out)
	return out, nil
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		// One analyzer can report twice at one position.
		return a.Message < b.Message
	})
}
