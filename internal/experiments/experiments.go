// Package experiments regenerates every figure of the paper's evaluation
// (Section 6) plus ablations for the design lemmas of Section 5. Each
// experiment builds its own workload, runs it, and renders the same rows or
// series the paper reports. The cmd/ssrbench binary and the repository's
// benchmarks are thin wrappers over this package.
//
// Paper figures:
//
//	Fig6a — precision/recall bars per result-size bucket, 500-table budget
//	Fig6b — the same with a 1000-table budget
//	Fig7a — avg response time (I/O + CPU) vs sequential scan, Set1
//	Fig7b — the same for Set2
//
// Ablations and validations:
//
//	FilterCurve — the p_{r,l}(s) S-curves of Figure 3
//	RLTradeoff  — steepness/accuracy growth with l (Section 5)
//	Placement   — equidepth vs uniform cuts (Lemma 4)
//	Allocation  — greedy vs uniform table budgets (Lemma 6)
//	Intervals   — #intervals vs worst-case recall/precision (Lemmas 3, 5)
//	DFIGain     — DFI vs SFI-only subtraction overhead (Section 4.2)
//	Embedding   — Theorem 1: Hamming distance tracks (1-s)/2, and the
//	              identity embedding does not
package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/minhash"
	"repro/internal/optimize"
	"repro/internal/set"
	"repro/internal/workload"
)

// Config scales the experiments. The paper used 200,000-set collections and
// 1000 queries per bucket; the defaults here run in seconds on a laptop
// while preserving every qualitative shape. Raise N and Queries via
// cmd/ssrbench flags to approach the paper's scale.
type Config struct {
	// N is the collection size per dataset.
	N int
	// Queries is the number of random queries evaluated.
	Queries int
	// Budget overrides the experiment's table budget where meaningful.
	Budget int
	// MinHashes is the signature length (paper: 100).
	MinHashes int
	// Seed drives all randomness.
	Seed int64
	// RecallTarget is the optimizer threshold T.
	RecallTarget float64
}

// DefaultConfig returns laptop-scale defaults. The recall target of 0.75
// is the level at which the Figure 4 optimizer selects a multi-interval
// layout on the synthetic log workloads (see EXPERIMENTS.md); raising it
// to the paper's 0.9 collapses the plan to a single conservative partition
// point with correspondingly coarse candidate sets.
func DefaultConfig() Config {
	return Config{
		N:            4000,
		Queries:      400,
		MinHashes:    64,
		Seed:         1,
		RecallTarget: 0.75,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.N <= 0 {
		c.N = d.N
	}
	if c.Queries <= 0 {
		c.Queries = d.Queries
	}
	if c.MinHashes <= 0 {
		c.MinHashes = d.MinHashes
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	if c.RecallTarget <= 0 {
		c.RecallTarget = d.RecallTarget
	}
	return c
}

// dataset pairs a name with generator parameters.
type dataset struct {
	name   string
	params workload.Params
}

func datasets(n int) []dataset {
	return []dataset{
		{"Set1", workload.Set1Params(n)},
		{"Set2", workload.Set2Params(n)},
	}
}

// buildIndexed generates a dataset and builds the paper-configured index.
func buildIndexed(d dataset, budget int, cfg Config) (*core.Index, []set.Set, error) {
	sets, err := workload.Generate(d.params)
	if err != nil {
		return nil, nil, fmt.Errorf("generating %s: %w", d.name, err)
	}
	ix, err := core.Build(sets, core.Options{
		Embed: minhash.Options{K: cfg.MinHashes, Bits: 8, Seed: cfg.Seed},
		Plan: optimize.Options{
			Budget:       budget,
			RecallTarget: cfg.RecallTarget,
		},
		DistSeed: cfg.Seed,
		// Account records at their web-log size (~110 bytes per log
		// string), matching the paper's ~2KB sets; see DESIGN.md.
		PayloadPerElem: 110,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("building %s index: %w", d.name, err)
	}
	return ix, sets, nil
}

// runBuckets evaluates a query workload and buckets it per the paper.
func runBuckets(ix *core.Index, sets []set.Set, cfg Config) ([]eval.BucketStats, error) {
	qs, err := workload.Queries(len(sets), workload.QueryParams{Count: cfg.Queries, Seed: cfg.Seed + 31})
	if err != nil {
		return nil, err
	}
	runner := eval.NewRunner(ix, sets)
	outcomes, err := runner.Run(qs)
	if err != nil {
		return nil, err
	}
	return eval.Bucketize(outcomes, len(sets), eval.PaperBuckets), nil
}

// Fig6Row is one bar pair of Figure 6.
type Fig6Row struct {
	Dataset   string
	Bucket    string
	Count     int
	Recall    float64
	Precision float64
}

// Fig6 reproduces Figure 6: per-bucket precision and recall for both
// datasets at the given hash-table budget (500 for 6(a), 1000 for 6(b)).
// Budgets are scaled by the N/200000 ratio implicitly through cfg.Budget:
// pass the paper's number and the structure scales naturally because the
// optimizer spends whatever it is given.
func Fig6(w io.Writer, budget int, cfg Config) ([]Fig6Row, error) {
	cfg = cfg.withDefaults()
	if cfg.Budget > 0 {
		budget = cfg.Budget
	}
	var rows []Fig6Row
	fmt.Fprintf(w, "Figure 6 (budget %d tables, k=%d, N=%d, %d queries)\n", budget, cfg.MinHashes, cfg.N, cfg.Queries)
	fmt.Fprintf(w, "%-6s %-12s %8s %8s %10s\n", "data", "bucket", "queries", "recall", "precision")
	for _, d := range datasets(cfg.N) {
		ix, sets, err := buildIndexed(d, budget, cfg)
		if err != nil {
			return nil, err
		}
		buckets, err := runBuckets(ix, sets, cfg)
		if err != nil {
			return nil, err
		}
		for _, b := range buckets {
			if b.Count == 0 {
				continue
			}
			row := Fig6Row{
				Dataset:   d.name,
				Bucket:    b.Label(),
				Count:     b.Count,
				Recall:    b.Recall,
				Precision: b.Precision,
			}
			rows = append(rows, row)
			fmt.Fprintf(w, "%-6s %-12s %8d %8.3f %10.3f\n", row.Dataset, row.Bucket, row.Count, row.Recall, row.Precision)
		}
	}
	return rows, nil
}

// Fig7Row is one response-time group of Figure 7.
type Fig7Row struct {
	Dataset  string
	Bucket   string
	Count    int
	ScanIO   time.Duration
	ScanCPU  time.Duration
	IndexIO  time.Duration
	IndexCPU time.Duration
}

// IndexWins reports whether the index beats the scan in total time.
func (r Fig7Row) IndexWins() bool {
	return r.IndexIO+r.IndexCPU < r.ScanIO+r.ScanCPU
}

// Fig7 reproduces Figure 7 for one dataset: average response time per
// result-size bucket, I/O and CPU reported separately, sequential scan
// versus the index (paper setup: 1000 tables, 100 min-hash values).
func Fig7(w io.Writer, datasetName string, budget int, cfg Config) ([]Fig7Row, error) {
	cfg = cfg.withDefaults()
	if cfg.Budget > 0 {
		budget = cfg.Budget
	}
	var d dataset
	for _, cand := range datasets(cfg.N) {
		if cand.name == datasetName {
			d = cand
		}
	}
	if d.name == "" {
		return nil, fmt.Errorf("experiments: unknown dataset %q", datasetName)
	}
	ix, sets, err := buildIndexed(d, budget, cfg)
	if err != nil {
		return nil, err
	}
	buckets, err := runBuckets(ix, sets, cfg)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "Figure 7 %s (budget %d tables, k=%d, N=%d)\n", d.name, budget, cfg.MinHashes, cfg.N)
	fmt.Fprintf(w, "%-12s %8s %12s %12s %12s %12s %7s\n", "bucket", "queries", "scan-IO", "scan-CPU", "index-IO", "index-CPU", "winner")
	var rows []Fig7Row
	for _, b := range buckets {
		if b.Count == 0 {
			continue
		}
		row := Fig7Row{
			Dataset:  d.name,
			Bucket:   b.Label(),
			Count:    b.Count,
			ScanIO:   b.ScanIO,
			ScanCPU:  b.ScanCPU,
			IndexIO:  b.IndexIO,
			IndexCPU: b.IndexCPU,
		}
		rows = append(rows, row)
		winner := "scan"
		if row.IndexWins() {
			winner = "index"
		}
		fmt.Fprintf(w, "%-12s %8d %12s %12s %12s %12s %7s\n",
			row.Bucket, row.Count, row.ScanIO.Round(time.Microsecond), row.ScanCPU.Round(time.Microsecond),
			row.IndexIO.Round(time.Microsecond), row.IndexCPU.Round(time.Microsecond), winner)
	}
	return rows, nil
}
