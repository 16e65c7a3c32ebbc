// Package load turns Go packages on disk into the parsed, type-checked form
// the analysis framework consumes, without golang.org/x/tools. It shells out
// to `go list -export` for dependency export data (compiled by the ordinary
// build, so loading is hermetic and fast), parses the target packages from
// source, and type-checks them with the standard gc importer reading that
// export data. This is the same layering go/packages uses in its
// NeedExportFile mode, grown locally from the standard library.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Package is one parsed, type-checked package ready for analysis.
type Package struct {
	// ImportPath is the package's import path ("repro/internal/filter").
	ImportPath string
	// Dir is the directory holding the sources.
	Dir string
	// Fset maps positions for Files.
	Fset *token.FileSet
	// Files are the parsed non-test sources, in GoFiles order.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info records the type-checker's facts about Files.
	Info *types.Info
}

// listPackage is the subset of `go list -json` output the loader needs.
type listPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	Incomplete bool
	Error      *struct{ Err string }
}

// goList runs `go list -export -json -deps` in dir for the given patterns
// and decodes the package stream.
func goList(dir string, patterns []string) ([]listPackage, error) {
	args := append([]string{
		"list", "-export", "-deps",
		"-json=ImportPath,Dir,Export,GoFiles,Standard,DepOnly,Incomplete,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("load: go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var pkgs []listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("load: decoding go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportImporter returns a types importer resolving import paths through the
// export-data files in exports.
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("load: no export data for %q", path)
		}
		return os.Open(file)
	})
}

// parseFiles parses the named files in dir into fset.
func parseFiles(fset *token.FileSet, dir string, names []string) ([]*ast.File, error) {
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// Load resolves patterns (e.g. "./...") in dir and returns the matched
// packages parsed from source and fully type-checked. Dependencies —
// including the standard library — are consumed as compiled export data, so
// only the packages under analysis pay parsing and checking cost. Test files
// are not loaded: the vet suite governs production code.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(listed))
	var targets []listPackage
	for _, p := range listed {
		if p.Error != nil {
			return nil, fmt.Errorf("load: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard && len(p.GoFiles) > 0 {
			targets = append(targets, p)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	fset := token.NewFileSet()
	imp := exportImporter(fset, exports)
	out := make([]*Package, 0, len(targets))
	for _, t := range targets {
		files, err := parseFiles(fset, t.Dir, t.GoFiles)
		if err != nil {
			return nil, fmt.Errorf("load: parsing %s: %v", t.ImportPath, err)
		}
		info := newInfo()
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(t.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("load: type-checking %s: %v", t.ImportPath, err)
		}
		out = append(out, &Package{
			ImportPath: t.ImportPath,
			Dir:        t.Dir,
			Fset:       fset,
			Files:      files,
			Types:      pkg,
			Info:       info,
		})
	}
	return out, nil
}

// Dir type-checks the single package rooted at dir (every non-test .go file
// in it), resolving its imports — typically just the standard library — via
// export data. It exists for analysistest, whose fixture packages live under
// testdata/ where go list will not enumerate them.
func Dir(dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		names = append(names, e.Name())
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("load: no Go files in %s", dir)
	}
	sort.Strings(names)

	fset := token.NewFileSet()
	files, err := parseFiles(fset, dir, names)
	if err != nil {
		return nil, err
	}
	// Resolve the fixture's imports to export data. go list compiles them
	// into the build cache on demand; run it from the fixture dir's module
	// (testdata sits inside this repo, so the repo module context applies).
	var imports []string
	seen := map[string]bool{}
	for _, f := range files {
		for _, spec := range f.Imports {
			path, err := strconv.Unquote(spec.Path.Value)
			if err != nil || seen[path] {
				continue
			}
			seen[path] = true
			imports = append(imports, path)
		}
	}
	exports := make(map[string]string)
	if len(imports) > 0 {
		listed, err := goList(dir, imports)
		if err != nil {
			return nil, err
		}
		for _, p := range listed {
			if p.Export != "" {
				exports[p.ImportPath] = p.Export
			}
		}
	}
	info := newInfo()
	conf := types.Config{Importer: exportImporter(fset, exports)}
	name := files[0].Name.Name
	pkg, err := conf.Check(name, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("load: type-checking %s: %v", dir, err)
	}
	return &Package{
		ImportPath: name,
		Dir:        dir,
		Fset:       fset,
		Files:      files,
		Types:      pkg,
		Info:       info,
	}, nil
}
