// Package analysis is a self-contained reimplementation of the core of
// golang.org/x/tools/go/analysis, built on the standard library alone so
// the repository's invariant checkers (cmd/facevet) need no module
// downloads.  It provides:
//
//   - the Analyzer/Pass/Diagnostic API the checkers are written against
//     (analysis.go),
//   - a per-package driver that runs a set of analyzers and applies the
//     //lint:allow suppression directives (check.go, allow.go),
//   - the "unitchecker" protocol spoken by `go vet -vettool=...`
//     (unitchecker.go), the only way the suite runs.
//
// The API mirrors x/tools deliberately — Name/Doc/Run, Pass with
// Fset/Files/Pkg/TypesInfo, Reportf — so the analyzers port verbatim if
// the real dependency ever becomes available.  Facts, Requires and
// ResultOf are omitted: every facevet analyzer is package-local.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer is one static check.  Name identifies the analyzer in
// diagnostics and in //lint:allow directives (as facevet/<name>); Doc is
// the one-paragraph description printed by -help; Run performs the check
// on a single package and reports findings through the Pass.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// A Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diagnostics []Diagnostic
}

// A Diagnostic is one finding, attributed to the analyzer that produced
// it.
type Diagnostic struct {
	Analyzer string
	Pos      token.Pos
	Message  string
}

// Report records a finding at pos.
func (p *Pass) Report(pos token.Pos, message string) {
	p.diagnostics = append(p.diagnostics, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      pos,
		Message:  message,
	})
}

// Reportf records a formatted finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(pos, fmt.Sprintf(format, args...))
}
