package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// Suppression directives.
//
// A finding that is intentional — lifecycle fences that hold the scheduler
// lock across a final flush — is silenced in place with
//
//	//lint:allow facevet/<analyzer> <justification>
//
// on the flagged line or on the line directly above it.  The
// justification is mandatory: a directive without one is itself reported
// (as facevet/allow), so every suppression in the tree documents why the
// rule does not apply.  One directive may name several analyzers,
// comma-separated.

const allowPrefix = "lint:allow "

// allowDirective is one parsed //lint:allow comment.
type allowDirective struct {
	pos       token.Pos
	line      int
	analyzers []string // names without the facevet/ prefix
	justified bool
}

// parseAllowDirectives extracts the directives from every comment in the
// files.  Malformed analyzer references (no facevet/ prefix) are kept
// with an empty name so they surface as unjustified rather than being
// silently ignored.
func parseAllowDirectives(fset *token.FileSet, files []*ast.File) []allowDirective {
	var out []allowDirective
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//")
				if !ok {
					continue // /* */ comments are not directives
				}
				text, ok = strings.CutPrefix(text, allowPrefix)
				if !ok {
					continue
				}
				names, justification, _ := strings.Cut(strings.TrimSpace(text), " ")
				d := allowDirective{
					pos:       c.Pos(),
					line:      fset.Position(c.Pos()).Line,
					justified: strings.TrimSpace(justification) != "",
				}
				for _, n := range strings.Split(names, ",") {
					n = strings.TrimPrefix(strings.TrimSpace(n), "facevet/")
					d.analyzers = append(d.analyzers, n)
				}
				out = append(out, d)
			}
		}
	}
	return out
}

// applyAllowDirectives removes the diagnostics covered by a justified
// directive (same line, or the line directly below the directive) and
// appends a facevet/allow diagnostic for each directive that lacks a
// justification.
func applyAllowDirectives(fset *token.FileSet, files []*ast.File, diags []Diagnostic) []Diagnostic {
	directives := parseAllowDirectives(fset, files)
	if len(directives) == 0 {
		return diags
	}

	// (file, line, analyzer) -> allowed
	type key struct {
		file     string
		line     int
		analyzer string
	}
	allowed := make(map[key]bool)
	for _, d := range directives {
		if !d.justified {
			continue
		}
		file := fset.Position(d.pos).Filename
		for _, name := range d.analyzers {
			allowed[key{file, d.line, name}] = true
			allowed[key{file, d.line + 1, name}] = true
		}
	}

	kept := diags[:0]
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		if allowed[key{pos.Filename, pos.Line, d.Analyzer}] {
			continue
		}
		kept = append(kept, d)
	}
	for _, d := range directives {
		if !d.justified {
			kept = append(kept, Diagnostic{
				Analyzer: "allow",
				Pos:      d.pos,
				Message:  "lint:allow directive needs a justification after the analyzer name",
			})
		}
	}
	return kept
}
