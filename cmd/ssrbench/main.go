// Command ssrbench regenerates the paper's evaluation figures and the
// design-lemma ablations (see DESIGN.md's per-experiment index).
//
// Usage:
//
//	ssrbench -exp fig6a                 # Figure 6(a): 500-table budget
//	ssrbench -exp fig7a -n 20000        # Figure 7(a) at a larger scale
//	ssrbench -exp all                   # everything, in order
//
// The paper's experiments used 200,000-set collections; the defaults here
// are laptop-scale but preserve the reported shapes. Raise -n and -queries
// to approach the original scale. Performance is measured by the
// repository's benchmark (go run ./benchmark), not here.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment: fig6a, fig6b, fig7a, fig7b, filtercurve, rltradeoff, placement, allocation, intervals, dfigain, embedding, profile, all")
		n       = flag.Int("n", 0, "collection size per dataset (0 = default)")
		queries = flag.Int("queries", 0, "number of random queries (0 = default)")
		budget  = flag.Int("budget", 0, "hash-table budget override (0 = per-experiment default)")
		k       = flag.Int("k", 0, "min-hash signature length (0 = default)")
		seed    = flag.Int64("seed", 0, "random seed (0 = default)")
		recall  = flag.Float64("recall", 0, "optimizer recall target (0 = default 0.75)")
		sstar   = flag.Float64("sstar", 0.8, "turning point for filter-curve experiments")
		outPath = flag.String("out", "", "write output to this file instead of stdout")
	)
	flag.Parse()

	cfg := experiments.Config{
		N:            *n,
		Queries:      *queries,
		Budget:       *budget,
		MinHashes:    *k,
		Seed:         *seed,
		RecallTarget: *recall,
	}
	out := io.Writer(os.Stdout)
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ssrbench: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "ssrbench: closing %s: %v\n", *outPath, err)
				os.Exit(1)
			}
		}()
		out = f
	}
	if err := run(out, strings.ToLower(*exp), cfg, *sstar); err != nil {
		fmt.Fprintf(os.Stderr, "ssrbench: %v\n", err)
		os.Exit(1)
	}
}

// run dispatches one experiment (or all of them) to w.
func run(w io.Writer, exp string, cfg experiments.Config, sstar float64) error {
	type job struct {
		name string
		fn   func(io.Writer) error
	}
	jobs := []job{
		{"fig6a", func(w io.Writer) error { _, err := experiments.Fig6(w, 500, cfg); return err }},
		{"fig6b", func(w io.Writer) error { _, err := experiments.Fig6(w, 1000, cfg); return err }},
		{"fig7a", func(w io.Writer) error { _, err := experiments.Fig7(w, "Set1", 1000, cfg); return err }},
		{"fig7b", func(w io.Writer) error { _, err := experiments.Fig7(w, "Set2", 1000, cfg); return err }},
		{"filtercurve", func(w io.Writer) error { _, err := experiments.FilterCurve(w, sstar); return err }},
		{"rltradeoff", func(w io.Writer) error { _, err := experiments.RLTradeoff(w, sstar); return err }},
		{"placement", func(w io.Writer) error { _, err := experiments.Placement(w, cfg); return err }},
		{"allocation", func(w io.Writer) error { _, err := experiments.Allocation(w, cfg); return err }},
		{"intervals", func(w io.Writer) error { _, err := experiments.Intervals(w, cfg); return err }},
		{"dfigain", func(w io.Writer) error { _, err := experiments.DFIGain(w, cfg); return err }},
		{"embedding", func(w io.Writer) error { _, err := experiments.Embedding(w, cfg); return err }},
		{"profile", func(w io.Writer) error { _, err := experiments.Profile(w, cfg); return err }},
	}
	if exp != "all" {
		for _, j := range jobs {
			if j.name == exp {
				return j.fn(w)
			}
		}
		names := make([]string, len(jobs))
		for i, j := range jobs {
			names[i] = j.name
		}
		return fmt.Errorf("unknown experiment %q (have: %s, all)", exp, strings.Join(names, ", "))
	}
	for i, j := range jobs {
		if i > 0 {
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "=== %s ===\n", j.name); err != nil {
			return err
		}
		if err := j.fn(w); err != nil {
			return fmt.Errorf("%s: %w", j.name, err)
		}
	}
	return nil
}
