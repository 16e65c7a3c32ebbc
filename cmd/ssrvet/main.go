// Command ssrvet is the repository's custom vet suite: a multichecker
// running the analyzers under internal/analysis with this repo's scoping
// policy. It complements stock `go vet` and the tests with the checks
// that catch a planted bug neither of them does: float equality in the
// probability math, dropped errors on the persistence and serving paths,
// aliasing escapes from lock-guarded state, lock-order inversions, and
// mixed atomic/plain access. Each analyzer's package doc names its plant.
//
// Usage:
//
//	go run ./cmd/ssrvet ./...
//	go run ./cmd/ssrvet -list
//	go run ./cmd/ssrvet -analyzers=floatcmp,lockorder ./internal/...
//
// Exit status is 1 when any diagnostic is reported, 2 on operational
// failure. Test files are not analyzed; the suite governs production code.
//
// Scoping policy (package import paths, applied on top of the patterns),
// with the planted bug each analyzer caught while gofmt, go build, go vet
// and go test with and without -race all passed:
//
//	floatcmp       repro/internal/{filter,optimize,simdist,eval}
//	               plant: fi.Point == p in optimize's fiAt
//	droppederr     repro (persist.go and friends), repro/internal/{storage,textio,server,wal,recovery,engine,tuner,replica}, repro/cmd/...
//	               plant: w.Write's error dropped in server.writeJSON
//	guardedescape  everywhere
//	               plant: a Collection method returning c.sets, used by ssr.Build
//	lockorder      repro (durable.go, ssr.go), repro/internal/{engine,core,tuner,plan} — the documented lock hierarchy
//	               plant: Collection.mu held across Engine.ShardSnapshot in saveShardCheckpoint
//	atomicview     everywhere
//	               plant: server's queries counter bumped by atomic.AddInt64, read plainly in handleStats
//
// Independently of any analyzer, every package is checked for
// //ssrvet:ignore directives lacking a `-- reason`: an unjustified
// suppression is itself reported.
//
// The analyzers themselves are policy-free; this binary is where the repo
// decides which invariant applies to which layer.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/atomicview"
	"repro/internal/analysis/droppederr"
	"repro/internal/analysis/floatcmp"
	"repro/internal/analysis/guardedescape"
	"repro/internal/analysis/load"
	"repro/internal/analysis/lockorder"
)

// scopedAnalyzer pairs an analyzer with the repo's package scope for it.
type scopedAnalyzer struct {
	analyzer *analysis.Analyzer
	// inScope decides whether the analyzer runs on a package import path.
	inScope func(path string) bool
}

// prefixScope matches a path equal to one of the prefixes or nested under
// "prefix/".
func prefixScope(prefixes ...string) func(string) bool {
	return func(path string) bool {
		for _, p := range prefixes {
			if path == p || strings.HasPrefix(path, p+"/") {
				return true
			}
		}
		return false
	}
}

func everywhere(string) bool { return true }

// suite is the repo's analyzer × scope policy.
var suite = []scopedAnalyzer{
	{floatcmp.Analyzer, prefixScope(
		"repro/internal/filter",
		"repro/internal/optimize",
		"repro/internal/simdist",
		"repro/internal/eval",
	)},
	{droppederr.Analyzer, func(path string) bool {
		return path == "repro" || prefixScope(
			"repro/internal/storage",
			"repro/internal/textio",
			"repro/internal/server",
			"repro/internal/wal",
			"repro/internal/recovery",
			"repro/internal/engine",
			"repro/internal/tuner",
			"repro/internal/replica",
			"repro/cmd",
		)(path)
	}},
	{guardedescape.Analyzer, everywhere},
	{lockorder.New(lockorder.Repo()), func(path string) bool {
		// The packages participating in the documented lock hierarchy:
		// durable.go and Collection at the root, the engine's shard and
		// mapping locks, the core index lock, the drift tracker, and the
		// planner's cache mutexes (outside everything).
		return path == "repro" || prefixScope(
			"repro/internal/engine",
			"repro/internal/core",
			"repro/internal/tuner",
			"repro/internal/plan",
		)(path)
	}},
	{atomicview.Analyzer, everywhere},
}

func main() {
	listFlag := flag.Bool("list", false, "list analyzers and exit")
	namesFlag := flag.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: ssrvet [-list] [-analyzers=a,b] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *listFlag {
		for _, s := range suite {
			fmt.Printf("%-14s %s\n", s.analyzer.Name, s.analyzer.Doc)
		}
		return
	}

	active := suite
	if *namesFlag != "" {
		wanted := map[string]bool{}
		for _, n := range strings.Split(*namesFlag, ",") {
			wanted[strings.TrimSpace(n)] = true
		}
		active = nil
		for _, s := range suite {
			if wanted[s.analyzer.Name] {
				active = append(active, s)
				delete(wanted, s.analyzer.Name)
			}
		}
		if len(wanted) > 0 {
			var unknown []string
			for n := range wanted {
				unknown = append(unknown, n)
			}
			sort.Strings(unknown)
			fmt.Fprintf(os.Stderr, "ssrvet: unknown analyzers: %s\n", strings.Join(unknown, ", "))
			os.Exit(2)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "ssrvet: %v\n", err)
		os.Exit(2)
	}
	pkgs, err := load.Load(cwd, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ssrvet: %v\n", err)
		os.Exit(2)
	}

	type located struct {
		pos  string
		diag analysis.Diagnostic
	}
	var found []located
	for _, pkg := range pkgs {
		// An ignore directive with no justification is itself a finding:
		// suppressions are part of the invariant record, not an escape
		// hatch, so each one must say why the violation is deliberate.
		analysis.CheckIgnores(pkg.Files, func(d analysis.Diagnostic) {
			found = append(found, located{pos: pkg.Fset.Position(d.Pos).String(), diag: d})
		})
		for _, s := range active {
			if !s.inScope(pkg.ImportPath) {
				continue
			}
			pass := &analysis.Pass{
				Analyzer:  s.analyzer,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
			}
			pass.Report = func(d analysis.Diagnostic) {
				found = append(found, located{pos: pkg.Fset.Position(d.Pos).String(), diag: d})
			}
			pass.BuildIgnores()
			if err := s.analyzer.Run(pass); err != nil {
				fmt.Fprintf(os.Stderr, "ssrvet: %s on %s: %v\n", s.analyzer.Name, pkg.ImportPath, err)
				os.Exit(2)
			}
		}
	}
	sort.Slice(found, func(i, j int) bool { return found[i].pos < found[j].pos })
	for _, f := range found {
		fmt.Printf("%s: [%s] %s\n", f.pos, f.diag.Category, f.diag.Message)
	}
	if len(found) > 0 {
		fmt.Fprintf(os.Stderr, "ssrvet: %d problem(s) found\n", len(found))
		os.Exit(1)
	}
}
