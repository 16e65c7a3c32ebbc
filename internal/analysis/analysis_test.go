package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func parse(t *testing.T, src string) (*token.FileSet, []*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "src.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parsing: %v", err)
	}
	return fset, []*ast.File{f}
}

func TestParseDirectives(t *testing.T) {
	_, files := parse(t, `package p

func f() {
	_ = 1 //ssrvet:ignore droppederr -- read-only fd
	_ = 2 //ssrvet:ignore lockorder, floatcmp
	_ = 3 //ssrvet:ignore
}
`)
	ds := ParseDirectives(files)
	if len(ds) != 3 {
		t.Fatalf("got %d directives, want 3", len(ds))
	}
	if got := ds[0].Analyzers; len(got) != 1 || got[0] != "droppederr" {
		t.Errorf("directive 0 analyzers = %v, want [droppederr]", got)
	}
	if ds[0].Reason != "read-only fd" {
		t.Errorf("directive 0 reason = %q, want %q", ds[0].Reason, "read-only fd")
	}
	if got := ds[1].Analyzers; len(got) != 2 || got[0] != "lockorder" || got[1] != "floatcmp" {
		t.Errorf("directive 1 analyzers = %v, want [lockorder floatcmp]", got)
	}
	if ds[1].Reason != "" || ds[2].Reason != "" {
		t.Errorf("directives 1 and 2 should have empty reasons")
	}
	if len(ds[2].Analyzers) != 0 {
		t.Errorf("bare directive should name no analyzers, got %v", ds[2].Analyzers)
	}
}

// TestCheckIgnoresUnjustified pins the suppression policy: an ignore with
// no "-- reason" text is itself a diagnostic, a justified one is not.
func TestCheckIgnoresUnjustified(t *testing.T) {
	fset, files := parse(t, `package p

func f() {
	_ = 1 //ssrvet:ignore droppederr
	_ = 2 //ssrvet:ignore droppederr -- documented exception
	_ = 3 //ssrvet:ignore -- bare but explained
}
`)
	var diags []Diagnostic
	CheckIgnores(files, func(d Diagnostic) { diags = append(diags, d) })
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want exactly 1 (the reasonless directive): %v", len(diags), diags)
	}
	if diags[0].Category != "ignore" {
		t.Errorf("category = %q, want %q", diags[0].Category, "ignore")
	}
	if !strings.Contains(diags[0].Message, "justification") {
		t.Errorf("message %q does not mention the missing justification", diags[0].Message)
	}
	if got := fset.Position(diags[0].Pos).Line; got != 4 {
		t.Errorf("diagnostic on line %d, want 4", got)
	}
}

// TestBuildIgnoresSuppression pins that directives suppress their own line
// and the line below, for the named analyzer only.
func TestBuildIgnoresSuppression(t *testing.T) {
	fset, files := parse(t, `package p

func f() {
	_ = 1 //ssrvet:ignore alpha -- known
	//ssrvet:ignore beta -- next line
	_ = 2
	_ = 3
}
`)
	report := func(name string, line int) bool {
		var got []Diagnostic
		p := &Pass{
			Analyzer: &Analyzer{Name: name},
			Fset:     fset,
			Files:    files,
			Report:   func(d Diagnostic) { got = append(got, d) },
		}
		p.BuildIgnores()
		file := fset.File(files[0].Pos())
		p.Reportf(file.LineStart(line), "finding")
		return len(got) > 0
	}
	if report("alpha", 4) {
		t.Errorf("alpha on line 4 should be suppressed by the same-line directive")
	}
	if !report("beta", 4) {
		t.Errorf("beta on line 4 should not be suppressed by alpha's directive")
	}
	if report("beta", 6) {
		t.Errorf("beta on line 6 should be suppressed by the directive above")
	}
	if !report("beta", 7) {
		t.Errorf("beta on line 7 is past the directive's reach and should report")
	}
}
