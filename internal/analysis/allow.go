package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// AllowPrefix introduces a suppression comment. The full form is
//
//	//lint:allow <analyzer> <reason...>
//
// and it suppresses findings of the named analyzer on the comment's own line
// and on the line directly below it, so both trailing comments and
// own-line comments above the offending statement work. A reason is
// mandatory: a suppression that cannot say why it exists is itself reported
// as a finding.
const AllowPrefix = "//lint:allow"

type allowKey struct {
	file string
	line int
}

// Suppressions indexes the //lint:allow comments of one package.
type Suppressions struct {
	byLine    map[allowKey]map[string]bool
	malformed []Finding
}

// CollectSuppressions scans the package's comments for //lint:allow
// directives. known maps valid analyzer names (nil accepts any); directives
// naming an unknown analyzer or missing a reason are recorded as malformed
// and surface as findings of the pseudo-analyzer "allow".
func CollectSuppressions(fset *token.FileSet, files []*ast.File, known map[string]bool) *Suppressions {
	s := &Suppressions{byLine: make(map[allowKey]map[string]bool)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(c.Text)
				if !strings.HasPrefix(text, AllowPrefix) {
					continue
				}
				pos := fset.Position(c.End())
				fields := strings.Fields(strings.TrimPrefix(text, AllowPrefix))
				switch {
				case len(fields) == 0:
					s.malformed = append(s.malformed, Finding{
						Pos: pos, Analyzer: "allow",
						Message: "malformed //lint:allow: missing analyzer name and reason",
					})
					continue
				case known != nil && !known[fields[0]]:
					s.malformed = append(s.malformed, Finding{
						Pos: pos, Analyzer: "allow",
						Message: fmt.Sprintf("//lint:allow names unknown analyzer %q", fields[0]),
					})
					continue
				case len(fields) < 2:
					s.malformed = append(s.malformed, Finding{
						Pos: pos, Analyzer: "allow",
						Message: fmt.Sprintf("//lint:allow %s has no reason; say why the violation is intended", fields[0]),
					})
					continue
				}
				k := allowKey{file: pos.Filename, line: pos.Line}
				if s.byLine[k] == nil {
					s.byLine[k] = make(map[string]bool)
				}
				s.byLine[k][fields[0]] = true
			}
		}
	}
	return s
}

// Allowed reports whether a finding of the named analyzer at pos is
// suppressed by an //lint:allow comment on the same or the preceding line.
func (s *Suppressions) Allowed(analyzer string, pos token.Position) bool {
	if s == nil {
		return false
	}
	if s.byLine[allowKey{pos.Filename, pos.Line}][analyzer] {
		return true
	}
	return s.byLine[allowKey{pos.Filename, pos.Line - 1}][analyzer]
}

// Malformed returns the findings for broken //lint:allow comments.
func (s *Suppressions) Malformed() []Finding {
	return s.malformed
}
