// Package analysis is a minimal, self-contained reimplementation of the
// golang.org/x/tools/go/analysis vocabulary used by this repository's custom
// vet suite (cmd/ssrvet). The build environment is hermetic — no module
// proxy — so the framework is grown from the standard library's go/ast and
// go/types instead of depending on x/tools; the API mirrors x/tools closely
// enough that the analyzers would port to a *analysis.Analyzer with only
// import-path changes.
//
// An Analyzer inspects one type-checked package at a time through a Pass and
// reports Diagnostics. Drivers (the multichecker in cmd/ssrvet, the fixture
// runner in analysistest) load packages, construct passes, and collect what
// the analyzers report.
//
// Suppression: a diagnostic is dropped when the offending line (or the line
// immediately above it) carries a comment of the form
//
//	//ssrvet:ignore analyzername -- reason
//
// A bare "//ssrvet:ignore" suppresses every analyzer on that line. This is
// the escape hatch for the rare site where an invariant is deliberately,
// documentedly violated. Like //go:build, the directive must start the
// comment with no space after the slashes; prose mentioning it is inert.
// A directive without a "-- reason" is itself reported (CheckIgnores).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and ignore directives.
	// It must be a valid Go identifier.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces and
	// why the invariant matters.
	Doc string
	// Run applies the analyzer to one package. It reports findings through
	// pass.Report/Reportf; the error return is for operational failures
	// (not findings).
	Run func(pass *Pass) error
}

// Diagnostic is one finding.
type Diagnostic struct {
	// Pos locates the finding.
	Pos token.Pos
	// Category is the reporting analyzer's name.
	Category string
	// Message states the violation and the expected remedy.
	Message string
}

// Pass carries one analyzer run over one package.
type Pass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// Fset maps token.Pos values to file positions.
	Fset *token.FileSet
	// Files are the package's parsed source files (tests excluded).
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo holds the type-checker's recorded facts for Files.
	TypesInfo *types.Info
	// Report delivers one diagnostic to the driver.
	Report func(Diagnostic)

	// ignores maps filename → line numbers carrying an ignore directive
	// naming this analyzer (or naming no analyzer, which matches all).
	ignores map[string]map[int]bool
}

// Reportf reports a formatted diagnostic at pos unless the line is
// suppressed by an ignore directive.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.suppressed(position.Filename, position.Line) {
		return
	}
	p.Report(Diagnostic{
		Pos:      pos,
		Category: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

func (p *Pass) suppressed(filename string, line int) bool {
	lines, ok := p.ignores[filename]
	if !ok {
		return false
	}
	// A directive suppresses its own line and the line directly below it
	// (so it can sit above a long statement).
	return lines[line] || lines[line-1]
}

// ignorePrefix is the directive marker. Like //go:build, a directive
// comment starts with it exactly — no space after the slashes — so prose
// that merely mentions the directive is never parsed as one.
const ignorePrefix = "//ssrvet:ignore"

// Directive is one parsed ssrvet:ignore comment.
type Directive struct {
	// Pos is the comment's position.
	Pos token.Pos
	// Analyzers names the suppressed analyzers; empty means all.
	Analyzers []string
	// Reason is the justification after "--", empty when omitted.
	Reason string
}

// ParseDirectives extracts every ssrvet:ignore directive from the files'
// comments.
func ParseDirectives(files []*ast.File) []Directive {
	var out []Directive
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				rest := c.Text[len(ignorePrefix):]
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue // e.g. //ssrvet:ignoreXYZ is not the directive
				}
				args := strings.TrimSpace(rest)
				d := Directive{Pos: c.Pos()}
				if i := strings.Index(args, "--"); i >= 0 {
					d.Reason = strings.TrimSpace(args[i+2:])
					args = strings.TrimSpace(args[:i])
				}
				for _, f := range strings.Fields(args) {
					d.Analyzers = append(d.Analyzers, strings.TrimSuffix(f, ","))
				}
				out = append(out, d)
			}
		}
	}
	return out
}

// CheckIgnores reports every suppression directive that carries no
// "-- reason" justification. A suppression without a recorded why is a
// time bomb: the next reader cannot tell a deliberate exception from a
// silenced bug. Drivers run it once per package (not per analyzer, so an
// unjustified directive is one diagnostic, not one per suite member).
func CheckIgnores(files []*ast.File, report func(Diagnostic)) {
	for _, d := range ParseDirectives(files) {
		if d.Reason != "" {
			continue
		}
		report(Diagnostic{
			Pos:      d.Pos,
			Category: "ignore",
			Message:  "ssrvet:ignore without a justification: append \"-- reason\" explaining why the invariant is deliberately violated",
		})
	}
}

// BuildIgnores scans the files' comments for ssrvet:ignore directives and
// installs the suppression index for the named analyzer. Drivers call this
// once per (package, analyzer) before Run.
func (p *Pass) BuildIgnores() {
	p.ignores = make(map[string]map[int]bool)
	for _, d := range ParseDirectives(p.Files) {
		if len(d.Analyzers) > 0 && !containsName(d.Analyzers, p.Analyzer.Name) {
			continue
		}
		pos := p.Fset.Position(d.Pos)
		if p.ignores[pos.Filename] == nil {
			p.ignores[pos.Filename] = make(map[int]bool)
		}
		p.ignores[pos.Filename][pos.Line] = true
	}
}

func containsName(names []string, name string) bool {
	for _, n := range names {
		if n == name {
			return true
		}
	}
	return false
}

// Inspect walks every file of the pass in depth-first order, calling fn for
// each node; fn returning false skips the node's children (ast.Inspect
// semantics).
func (p *Pass) Inspect(fn func(ast.Node) bool) {
	for _, f := range p.Files {
		ast.Inspect(f, fn)
	}
}

// ErrorType is the predeclared error interface type, for result-signature
// matching.
var ErrorType = types.Universe.Lookup("error").Type()

// IsErrorType reports whether t is exactly the predeclared error type.
func IsErrorType(t types.Type) bool {
	return types.Identical(t, ErrorType)
}
