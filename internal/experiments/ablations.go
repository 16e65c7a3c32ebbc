package experiments

import (
	"fmt"
	"io"
	"math"
	"math/bits"

	"repro/internal/filter"
	"repro/internal/minhash"
	"repro/internal/optimize"
	"repro/internal/set"
	"repro/internal/simdist"
	"repro/internal/storage"
	"repro/internal/workload"
)

// CurvePoint is one sample of a p_{r,l}(s) curve.
type CurvePoint struct {
	S float64
	P float64
}

// Curve is one filter-function curve.
type Curve struct {
	R, L   int
	Points []CurvePoint
}

// FilterCurve renders the probabilistic filter functions of Figure 3: for a
// fixed turning point s*, several (r, l) pairs trace S-curves of growing
// steepness.
func FilterCurve(w io.Writer, sStar float64) ([]Curve, error) {
	if sStar <= 0 || sStar >= 1 {
		return nil, fmt.Errorf("experiments: sStar must be in (0,1), got %g", sStar)
	}
	ls := []int{2, 8, 32, 128}
	var curves []Curve
	fmt.Fprintf(w, "Filter functions p_{r,l}(s) with turning point s* = %.2f\n", sStar)
	fmt.Fprintf(w, "%-6s", "s")
	for _, l := range ls {
		r, err := filter.SolveR(l, sStar)
		if err != nil {
			return nil, err
		}
		curves = append(curves, Curve{R: r, L: l})
		fmt.Fprintf(w, " p(r=%d,l=%d)", r, l)
	}
	fmt.Fprintln(w)
	for s := 0.0; s <= 1.0001; s += 0.05 {
		fmt.Fprintf(w, "%-6.2f", s)
		for i := range curves {
			p := filter.CollisionProb(s, curves[i].R, curves[i].L)
			curves[i].Points = append(curves[i].Points, CurvePoint{S: s, P: p})
			fmt.Fprintf(w, " %11.4f", p)
		}
		fmt.Fprintln(w)
	}
	return curves, nil
}

// TradeoffRow reports the r-l trade-off at one l.
type TradeoffRow struct {
	L         int
	R         int
	Steepness float64
	// Width10To90 is the similarity gap over which the filter rises from
	// 0.1 to 0.9 — smaller is closer to the ideal unit step.
	Width10To90 float64
}

// RLTradeoff quantifies Section 5's accuracy-vs-tables trade-off: as l
// grows (with r re-solved), the filter function narrows around s*.
func RLTradeoff(w io.Writer, sStar float64) ([]TradeoffRow, error) {
	if sStar <= 0 || sStar >= 1 {
		return nil, fmt.Errorf("experiments: sStar must be in (0,1), got %g", sStar)
	}
	fmt.Fprintf(w, "r-l trade-off at s* = %.2f\n", sStar)
	fmt.Fprintf(w, "%6s %6s %10s %12s\n", "l", "r", "steepness", "width(10-90)")
	var rows []TradeoffRow
	for _, l := range []int{1, 2, 4, 8, 16, 32, 64, 128, 256} {
		r, err := filter.SolveR(l, sStar)
		if err != nil {
			return nil, err
		}
		row := TradeoffRow{
			L:           l,
			R:           r,
			Steepness:   filter.Steepness(r, l),
			Width10To90: curveWidth(r, l),
		}
		rows = append(rows, row)
		fmt.Fprintf(w, "%6d %6d %10.3f %12.4f\n", row.L, row.R, row.Steepness, row.Width10To90)
	}
	return rows, nil
}

// curveWidth finds the similarity gap between p = 0.1 and p = 0.9 by
// bisection.
func curveWidth(r, l int) float64 {
	find := func(target float64) float64 {
		lo, hi := 0.0, 1.0
		for i := 0; i < 60; i++ {
			mid := (lo + hi) / 2
			if filter.CollisionProb(mid, r, l) < target {
				lo = mid
			} else {
				hi = mid
			}
		}
		return (lo + hi) / 2
	}
	return find(0.9) - find(0.1)
}

// PlanCompareRow reports one planning strategy's expected quality.
type PlanCompareRow struct {
	Strategy       string
	Cuts           int
	WorstRecall    float64
	WorstPrecision float64
}

// Placement compares equidepth against uniform partition-point placement
// (Lemma 4) on a Set1-like similarity distribution.
func Placement(w io.Writer, cfg Config) ([]PlanCompareRow, error) {
	cfg = cfg.withDefaults()
	hist, err := datasetHist(cfg)
	if err != nil {
		return nil, err
	}
	budget := cfg.Budget
	if budget <= 0 {
		budget = 100
	}
	fmt.Fprintf(w, "FI placement ablation (Lemma 4), budget %d\n", budget)
	fmt.Fprintf(w, "%-10s %6s %12s %15s\n", "placement", "cuts", "worstRecall", "worstPrecision")
	var rows []PlanCompareRow
	for _, s := range []struct {
		name string
		p    optimize.Placement
	}{{"equidepth", optimize.Equidepth}, {"uniform", optimize.Uniform}} {
		plan, err := optimize.BuildPlan(hist, optimize.Options{
			Budget: budget, RecallTarget: cfg.RecallTarget, Placement: s.p, MaxFIs: 6,
		})
		if err != nil {
			return nil, err
		}
		row := PlanCompareRow{Strategy: s.name, Cuts: len(plan.Cuts), WorstRecall: plan.WorstRecall, WorstPrecision: plan.WorstPrecision}
		rows = append(rows, row)
		fmt.Fprintf(w, "%-10s %6d %12.3f %15.4f\n", row.Strategy, row.Cuts, row.WorstRecall, row.WorstPrecision)
	}
	return rows, nil
}

// Allocation compares greedy against uniform hash-table allocation
// (Lemma 6) at a fixed interval decomposition.
func Allocation(w io.Writer, cfg Config) ([]PlanCompareRow, error) {
	cfg = cfg.withDefaults()
	hist, err := datasetHist(cfg)
	if err != nil {
		return nil, err
	}
	budget := cfg.Budget
	if budget <= 0 {
		budget = 100
	}
	fmt.Fprintf(w, "Hash-table allocation ablation (Lemma 6), budget %d\n", budget)
	fmt.Fprintf(w, "%-10s %6s %12s %15s\n", "allocation", "cuts", "worstRecall", "worstPrecision")
	var rows []PlanCompareRow
	for _, s := range []struct {
		name string
		a    optimize.Allocation
	}{{"greedy", optimize.Greedy}, {"uniform", optimize.UniformTables}} {
		plan, err := optimize.BuildPlan(hist, optimize.Options{
			Budget: budget, RecallTarget: 0.5, Allocation: s.a, MaxFIs: 4,
		})
		if err != nil {
			return nil, err
		}
		row := PlanCompareRow{Strategy: s.name, Cuts: len(plan.Cuts), WorstRecall: plan.WorstRecall, WorstPrecision: plan.WorstPrecision}
		rows = append(rows, row)
		fmt.Fprintf(w, "%-10s %6d %12.3f %15.4f\n", row.Strategy, row.Cuts, row.WorstRecall, row.WorstPrecision)
	}
	return rows, nil
}

// IntervalRow reports plan quality at a fixed interval count.
type IntervalRow struct {
	Cuts           int
	WorstRecall    float64
	WorstPrecision float64
}

// Intervals sweeps the number of partition intervals at a fixed budget,
// exhibiting Lemma 3 (recall shrinks with more intervals) and Lemma 5
// (precision grows with more intervals) — the tension Figure 4 resolves.
func Intervals(w io.Writer, cfg Config) ([]IntervalRow, error) {
	cfg = cfg.withDefaults()
	hist, err := datasetHist(cfg)
	if err != nil {
		return nil, err
	}
	budget := cfg.Budget
	if budget <= 0 {
		budget = 100
	}
	fmt.Fprintf(w, "Interval-count sweep (Lemmas 3 and 5), budget %d\n", budget)
	fmt.Fprintf(w, "%6s %12s %15s\n", "cuts", "worstRecall", "worstPrecision")
	var rows []IntervalRow
	for n := 1; n <= 8; n++ {
		plan, err := optimize.BuildPlanFixedIntervals(hist, n, optimize.Options{
			Budget: budget, RecallTarget: 0,
		})
		if err != nil {
			return nil, err
		}
		row := IntervalRow{Cuts: len(plan.Cuts), WorstRecall: plan.WorstRecall, WorstPrecision: plan.WorstPrecision}
		rows = append(rows, row)
		fmt.Fprintf(w, "%6d %12.3f %15.4f\n", row.Cuts, row.WorstRecall, row.WorstPrecision)
	}
	return rows, nil
}

// datasetHist builds the Set1-like similarity distribution used by the
// planner ablations.
func datasetHist(cfg Config) (*simdist.Histogram, error) {
	sets, err := workload.Generate(workload.Set1Params(cfg.N))
	if err != nil {
		return nil, err
	}
	sample := 50 * cfg.N
	maxPairs := cfg.N * (cfg.N - 1) / 2
	if sample > maxPairs {
		sample = maxPairs
	}
	return simdist.SamplePairs(sets, sample, 0, cfg.Seed+5)
}

// DFIGainRow compares subtraction overhead for one low-similarity range.
type DFIGainRow struct {
	Lo, Hi float64
	// SFIOnlyFetched is the average number of sids materialized by the
	// SFI-only combination Sim(lo) \ Sim(hi) (Section 4.1's first
	// attempt).
	SFIOnlyFetched float64
	// DFIFetched is the average materialized by Dissim(hi) \ Dissim(lo).
	DFIFetched float64
}

// DFIGain quantifies Section 4.2's motivation: answering low-similarity
// ranges via Dissimilarity Filter Indices materializes far fewer sids than
// the SFI-only set difference.
func DFIGain(w io.Writer, cfg Config) ([]DFIGainRow, error) {
	cfg = cfg.withDefaults()
	sets, err := workload.Generate(workload.Set1Params(cfg.N))
	if err != nil {
		return nil, err
	}
	perms, err := minhash.NewFamily(cfg.MinHashes, cfg.Seed)
	if err != nil {
		return nil, err
	}
	code, err := filter.NewHadamard(8)
	if err != nil {
		return nil, err
	}
	ranges := [][2]float64{{0.02, 0.1}, {0.05, 0.2}, {0.1, 0.3}}
	const tables = 12
	// Build paired structures at every endpoint.
	type pairFI struct{ sfi, dfi *filter.Index }
	fis := map[float64]pairFI{}
	for _, r := range ranges {
		for _, p := range []float64{r[0], r[1]} {
			if _, ok := fis[p]; ok {
				continue
			}
			th := filter.HammingFromJaccard(p)
			sfi, err := filter.New(0, filter.Options{
				Kind: filter.Similar, Threshold: th, Code: code, K: cfg.MinHashes,
				Tables: tables, Seed: cfg.Seed + int64(p*1000), ExpectedEntries: len(sets),
			})
			if err != nil {
				return nil, err
			}
			dfi, err := filter.New(0, filter.Options{
				Kind: filter.Dissimilar, Threshold: th, Code: code, K: cfg.MinHashes,
				Tables: tables, Seed: cfg.Seed + int64(p*1000) + 1, ExpectedEntries: len(sets),
			})
			if err != nil {
				return nil, err
			}
			fis[p] = pairFI{sfi, dfi}
		}
	}
	for sid, s := range sets {
		src := perms.Sign(s)
		for _, pf := range fis {
			pf.sfi.Insert(src, storage.SID(sid))
			pf.dfi.Insert(src, storage.SID(sid))
		}
	}
	nq := cfg.Queries
	if nq > 100 {
		nq = 100
	}
	fmt.Fprintf(w, "DFI vs SFI-only overhead for low-similarity ranges (N=%d, %d queries)\n", cfg.N, nq)
	fmt.Fprintf(w, "%-14s %16s %12s %8s\n", "range", "SFI-only fetched", "DFI fetched", "ratio")
	var rows []DFIGainRow
	for _, r := range ranges {
		var sfiTot, dfiTot float64
		for q := 0; q < nq; q++ {
			src := perms.Sign(sets[(q*37)%len(sets)])
			lo, hi := fis[r[0]], fis[r[1]]
			sfiTot += float64(len(lo.sfi.Vector(src, nil)) + len(hi.sfi.Vector(src, nil)))
			dfiTot += float64(len(hi.dfi.Vector(src, nil)) + len(lo.dfi.Vector(src, nil)))
		}
		row := DFIGainRow{
			Lo: r[0], Hi: r[1],
			SFIOnlyFetched: sfiTot / float64(nq),
			DFIFetched:     dfiTot / float64(nq),
		}
		rows = append(rows, row)
		ratio := math.Inf(1)
		if row.DFIFetched > 0 {
			ratio = row.SFIOnlyFetched / row.DFIFetched
		}
		fmt.Fprintf(w, "[%.2f, %.2f]   %16.1f %12.1f %8.2f\n", row.Lo, row.Hi, row.SFIOnlyFetched, row.DFIFetched, ratio)
	}
	return rows, nil
}

// EmbedRow reports the embedding fidelity at one similarity level.
type EmbedRow struct {
	Similarity float64
	// Expected is the Theorem 1 prediction (1-s)/2.
	Expected float64
	// Hadamard is the measured mean relative Hamming distance under the
	// equidistant code; HadamardSpread is the standard deviation of the
	// per-codeword relative distances over disagreeing coordinates —
	// exactly zero for an equidistant code (every disagreeing codeword
	// pair is at exactly m/2).
	Hadamard, HadamardSpread float64
	// Identity and IdentitySpread are the same under the broken
	// straightforward embedding of Example 1: right on average, but
	// individual disagreeing values share arbitrary numbers of bits.
	Identity, IdentitySpread float64
}

// Embedding validates Theorem 1 empirically: across the similarity
// spectrum, both embeddings average near (1-s)/2, but only the Hadamard
// code guarantees it per coordinate — the identity embedding's
// per-codeword distances scatter (the paper's Example 1), which is what
// breaks the bit-sampling analysis.
func Embedding(w io.Writer, cfg Config) ([]EmbedRow, error) {
	cfg = cfg.withDefaults()
	k := cfg.MinHashes
	const seeds = 10 // average out per-family binomial noise
	hadCode, err := filter.NewHadamard(8)
	if err != nil {
		return nil, err
	}
	idCode, err := filter.NewIdentity(8)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "Theorem 1 validation (k=%d, %d families): relative Hamming distance vs (1-s)/2\n", k, seeds)
	fmt.Fprintf(w, "%10s %10s %10s %10s %10s %10s\n", "similarity", "expected", "hadamard", "(spread)", "identity", "(spread)")
	var rows []EmbedRow
	for _, overlap := range []int{100, 80, 60, 40, 20, 0} {
		// Two sets sharing `overlap` of 100 elements each:
		// sim = overlap / (200 - overlap).
		a := make([]set.Elem, 100)
		b := make([]set.Elem, 100)
		for i := 0; i < 100; i++ {
			a[i] = set.Elem(i)
			if i < overlap {
				b[i] = set.Elem(i)
			} else {
				b[i] = set.Elem(1000 + i)
			}
		}
		sa, sb := set.New(a...), set.New(b...)
		s := sa.Jaccard(sb)
		var row EmbedRow
		row.Similarity = s
		row.Expected = (1 - s) / 2
		for seed := int64(0); seed < seeds; seed++ {
			perms, err := minhash.NewFamily(k, cfg.Seed+seed)
			if err != nil {
				return nil, err
			}
			siga, sigb := perms.Sign(sa), perms.Sign(sb)
			hMean, hSpread := codewordDistances(hadCode, siga, sigb)
			iMean, iSpread := codewordDistances(idCode, siga, sigb)
			row.Hadamard += hMean / seeds
			row.HadamardSpread += hSpread / seeds
			row.Identity += iMean / seeds
			row.IdentitySpread += iSpread / seeds
		}
		rows = append(rows, row)
		fmt.Fprintf(w, "%10.3f %10.3f %10.3f %10.3f %10.3f %10.3f\n",
			row.Similarity, row.Expected, row.Hadamard, row.HadamardSpread, row.Identity, row.IdentitySpread)
	}
	return rows, nil
}

// codewordDistances returns the overall relative Hamming distance between
// the embeddings of two signatures under code, and the standard deviation
// of per-codeword relative distances over the disagreeing coordinates.
// Codeword bit x of coordinate i differs exactly when parity((a_i^b_i) &
// Column(x)) is 1, the code being linear.
func codewordDistances(code filter.Code, a, b minhash.Signature) (mean, disagreeSpread float64) {
	m := code.Length()
	var dists []float64
	total := 0
	for i := range a {
		d := 0
		for x := 0; x < m; x++ {
			d += bits.OnesCount64((a[i]^b[i])&code.Column(x)) & 1
		}
		total += d
		if d > 0 { // disagreeing codeword
			dists = append(dists, float64(d)/float64(m))
		}
	}
	mean = float64(total) / float64(len(a)*m)
	if len(dists) == 0 {
		return mean, 0
	}
	mu := 0.0
	for _, d := range dists {
		mu += d
	}
	mu /= float64(len(dists))
	v := 0.0
	for _, d := range dists {
		v += (d - mu) * (d - mu)
	}
	return mean, math.Sqrt(v / float64(len(dists)))
}
