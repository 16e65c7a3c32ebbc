// Package eval measures the indexing scheme the way Section 6 does: random
// queries are classified into buckets by candidate result size (as a
// fraction of the collection), and per bucket it reports average recall,
// precision, and response time split into I/O and CPU, for both the index
// and the sequential-scan baseline.
package eval

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/set"
	"repro/internal/storage"
	"repro/internal/workload"
)

// PaperBuckets are the candidate-result-size bucket boundaries of Section 6
// (fractions of the collection): <0.5%, 0.5–5%, 5–10%, 10–25%, 25–35%.
var PaperBuckets = []float64{0.005, 0.05, 0.10, 0.25, 0.35}

// Outcome records the result of one evaluated query.
type Outcome struct {
	// Query is the evaluated query.
	Query workload.Query
	// Candidates is the filter-stage candidate count (bucketing key).
	Candidates int
	// Results is the number of verified results the index returned.
	Results int
	// Truth is the exact answer size.
	Truth int
	// Hits is |index results ∩ truth| (equal to Results: verification
	// makes every returned result correct; kept explicit for clarity).
	Hits int
	// Recall is Hits/Truth (1 when Truth is 0).
	Recall float64
	// Precision is Results/Candidates (1 when Candidates is 0): the
	// fraction of fetched candidates that belong to the answer — the
	// efficiency notion of Definition 9.
	Precision float64
	// IndexIO is the simulated I/O time of the index path.
	IndexIO time.Duration
	// IndexCPU is the measured processor time of the index path.
	IndexCPU time.Duration
	// ScanIO is the simulated I/O time of a sequential scan.
	ScanIO time.Duration
	// ScanCPU is the measured processor time of the scan's similarity
	// evaluations.
	ScanCPU time.Duration
}

// Runner evaluates query workloads against a built index and the scan
// baseline. Sets must be the same collection (same order) the index was
// built from; it doubles as the ground-truth oracle.
type Runner struct {
	// Index is the built index under test.
	Index *core.Index
	// Sets is the raw collection, indexed by sid.
	Sets []set.Set
	// Model converts I/O counts to simulated time.
	Model storage.CostModel
}

// NewRunner constructs a Runner with the default cost model.
func NewRunner(ix *core.Index, sets []set.Set) *Runner {
	return &Runner{Index: ix, Sets: sets, Model: storage.DefaultCostModel()}
}

// Run evaluates every query and returns per-query outcomes.
func (r *Runner) Run(queries []workload.Query) ([]Outcome, error) {
	if len(r.Sets) != r.Index.Len() {
		return nil, fmt.Errorf("eval: collection size %d != index size %d", len(r.Sets), r.Index.Len())
	}
	out := make([]Outcome, 0, len(queries))
	for _, q := range queries {
		o, err := r.runOne(q)
		if err != nil {
			return nil, err
		}
		out = append(out, o)
	}
	return out, nil
}

func (r *Runner) runOne(q workload.Query) (Outcome, error) {
	if q.SID < 0 || q.SID >= len(r.Sets) {
		return Outcome{}, fmt.Errorf("eval: query sid %d out of range", q.SID)
	}
	qset := r.Sets[q.SID]

	matches, stats, err := r.Index.QueryWithOptions(qset, q.Lo, q.Hi, core.QueryOptions{})
	if err != nil {
		return Outcome{}, err
	}

	// Ground truth plus scan-baseline timing: one pass over the in-memory
	// collection performs the same similarity evaluations a sequential
	// scan would, so its wall time is the scan's CPU component, and the
	// scan's I/O is the full heap read.
	scanStart := time.Now()
	truth := 0
	for _, s := range r.Sets {
		sim := qset.Jaccard(s)
		if sim >= q.Lo && sim <= q.Hi {
			truth++
		}
	}
	scanCPU := time.Since(scanStart)
	scanIO := r.Model.Time(r.Index.Store().NumPages(), 0)

	o := Outcome{
		Query:      q,
		Candidates: stats.Candidates,
		Results:    len(matches),
		Truth:      truth,
		Hits:       len(matches),
		Recall:     1,
		Precision:  1,
		IndexIO:    stats.SimIOTime(r.Model),
		IndexCPU:   stats.CPU,
		ScanIO:     scanIO,
		ScanCPU:    scanCPU,
	}
	if truth > 0 {
		o.Recall = float64(len(matches)) / float64(truth)
	}
	if stats.Candidates > 0 {
		o.Precision = float64(len(matches)) / float64(stats.Candidates)
	}
	return o, nil
}

// BucketStats aggregates outcomes whose candidate-result fraction falls in
// [LoFrac, HiFrac).
type BucketStats struct {
	// LoFrac, HiFrac delimit the bucket (fractions of the collection).
	LoFrac, HiFrac float64
	// Count is the number of queries in the bucket.
	Count int
	// Recall, Precision are bucket averages.
	Recall, Precision float64
	// IndexIO, IndexCPU, ScanIO, ScanCPU are bucket-average times.
	IndexIO, IndexCPU, ScanIO, ScanCPU time.Duration
}

// Label renders the bucket range as a percentage interval.
func (b BucketStats) Label() string {
	return fmt.Sprintf("%.1f%%-%.1f%%", b.LoFrac*100, b.HiFrac*100)
}

// Bucketize groups outcomes by candidate-result fraction of n using the
// given boundaries (e.g. PaperBuckets). Outcomes beyond the last boundary
// land in a final overflow bucket up to 100%.
func Bucketize(outcomes []Outcome, n int, bounds []float64) []BucketStats {
	lo := 0.0
	buckets := make([]BucketStats, 0, len(bounds)+1)
	for _, b := range bounds {
		buckets = append(buckets, BucketStats{LoFrac: lo, HiFrac: b})
		lo = b
	}
	buckets = append(buckets, BucketStats{LoFrac: lo, HiFrac: 1.0})

	type acc struct {
		rec, prec            float64
		iIO, iCPU, sIO, sCPU float64
	}
	accs := make([]acc, len(buckets))
	for _, o := range outcomes {
		frac := 0.0
		if n > 0 {
			frac = float64(o.Candidates) / float64(n)
		}
		bi := len(buckets) - 1
		for i := range buckets {
			if frac < buckets[i].HiFrac {
				bi = i
				break
			}
		}
		buckets[bi].Count++
		accs[bi].rec += o.Recall
		accs[bi].prec += o.Precision
		accs[bi].iIO += float64(o.IndexIO)
		accs[bi].iCPU += float64(o.IndexCPU)
		accs[bi].sIO += float64(o.ScanIO)
		accs[bi].sCPU += float64(o.ScanCPU)
	}
	for i := range buckets {
		if c := buckets[i].Count; c > 0 {
			fc := float64(c)
			buckets[i].Recall = accs[i].rec / fc
			buckets[i].Precision = accs[i].prec / fc
			buckets[i].IndexIO = time.Duration(accs[i].iIO / fc)
			buckets[i].IndexCPU = time.Duration(accs[i].iCPU / fc)
			buckets[i].ScanIO = time.Duration(accs[i].sIO / fc)
			buckets[i].ScanCPU = time.Duration(accs[i].sCPU / fc)
		}
	}
	return buckets
}
