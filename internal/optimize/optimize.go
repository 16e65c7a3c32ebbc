// Package optimize implements the index-design machinery of Section 5: the
// expected false positive/negative model of a filter index (Definitions
// 6–7), expected recall and precision of similarity intervals (Definitions
// 8–9), greedy allocation of a hash-table budget to filter indices
// (Lemma 6, Figure 5), and the index construction algorithm that grows the
// number of equidepth intervals while expected worst-case recall stays
// above the user's threshold (Figure 4).
//
// All partition points and thresholds in this package are expressed on the
// Jaccard scale; conversions to the Hamming scale of the embedded vectors
// (Theorem 1: s_H = (1+s)/2) happen inside the capture-probability model.
package optimize

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"repro/internal/filter"
	"repro/internal/simdist"
)

// FI describes one planned filter index: a partition point (Jaccard scale),
// its kind, and the hash tables allocated to it.
type FI struct {
	// Point is the partition point this index is anchored at, in [0, 1]
	// Jaccard similarity.
	Point float64
	// Kind is SFI (Similar) or DFI (Dissimilar).
	Kind filter.Kind
	// Tables is l, the number of hash tables allocated.
	Tables int
	// R is the per-table sampled bit count implied by (Tables, Point).
	R int
}

// turningHamming returns the Hamming-similarity turning point the FI's
// tables must realize. An SFI at Jaccard σ captures vectors
// with s_H >= (1+σ)/2; a DFI probes complemented queries, where a set at
// Jaccard similarity s appears at similarity 1-s_H(s) = (1-s)/2, so its
// turning point is (1-σ)/2.
func turningHamming(kind filter.Kind, sigma float64) float64 {
	return kind.ProbeSimilarity(filter.HammingFromJaccard(sigma))
}

// solveR resolves r for an FI with l tables at Jaccard point sigma.
func solveR(kind filter.Kind, sigma float64, l int) int {
	if l < 1 {
		return 0
	}
	r, err := filter.SolveR(l, turningHamming(kind, sigma))
	if err != nil {
		return 1
	}
	return r
}

// Model evaluates expected errors of planned filter indices against a
// similarity distribution. It caches the capture model's parts for its
// lifetime and is not safe for concurrent use.
type Model struct {
	hist *simdist.Histogram
	kern *kernel
}

// NewModel wraps a similarity distribution for error estimation with the
// cheaper mean-Hamming capture approximation (k = 0).
func NewModel(hist *simdist.Histogram) *Model { return NewModelK(hist, 0) }

// NewModelK wraps a similarity distribution for error estimation under a
// k-coordinate min-hash signature (Binomial-averaged capture).
func NewModelK(hist *simdist.Histogram, k int) *Model {
	return &Model{hist: hist, kern: newKernel(k)}
}

// FalsePositives returns the expected number (unnormalized mass) of sets
// erroneously captured by an FI at sigma with l tables (Definition 6): for
// an SFI the mass below sigma that collides anyway, for a DFI the mass
// above sigma.
func (m *Model) FalsePositives(kind filter.Kind, sigma float64, l int) float64 {
	cap := m.kern.curve(kind, sigma, l)
	if kind == filter.Dissimilar {
		return m.hist.Integrate(sigma, 1, cap)
	}
	return m.hist.Integrate(0, sigma, cap)
}

// FalseNegatives returns the expected mass of sets the FI should capture
// but misses (Definition 7).
func (m *Model) FalseNegatives(kind filter.Kind, sigma float64, l int) float64 {
	cap := m.kern.curve(kind, sigma, l)
	miss := func(s float64) float64 { return 1 - cap(s) }
	if kind == filter.Dissimilar {
		return m.hist.Integrate(0, sigma, miss)
	}
	return m.hist.Integrate(sigma, 1, miss)
}

// Error returns FalsePositives + FalseNegatives — the quantity the greedy
// allocator drives down.
func (m *Model) Error(kind filter.Kind, sigma float64, l int) float64 {
	return m.FalsePositives(kind, sigma, l) + m.FalseNegatives(kind, sigma, l)
}

// GreedyAllocate distributes budget hash tables over the FIs (Figure 5):
// each FI first receives one table (an FI with zero tables is inert), then
// each remaining table goes to the FI whose expected error decreases most.
// It returns the per-FI table counts, aligned with fis. An error is
// returned if budget < len(fis).
func (m *Model) GreedyAllocate(fis []FI, budget int) ([]int, error) {
	n := len(fis)
	if n == 0 {
		return nil, fmt.Errorf("optimize: no filter indices to allocate to")
	}
	if budget < n {
		return nil, fmt.Errorf("optimize: budget %d below one table per FI (%d FIs)", budget, n)
	}
	alloc := make([]int, n)
	errs := make([]float64, n)
	next := make([]float64, n) // memoized Error at alloc[i]+1
	for i := range fis {
		alloc[i] = 1
		errs[i] = m.Error(fis[i].Kind, fis[i].Point, 1)
		next[i] = m.Error(fis[i].Kind, fis[i].Point, 2)
	}
	for t := n; t < budget; t++ {
		best, bestGain := -1, 0.0
		for i := range fis {
			gain := errs[i] - next[i]
			if best == -1 || gain > bestGain {
				best, bestGain = i, gain
			}
		}
		alloc[best]++
		// Only the winner's marginal changes; everyone else's memoized
		// next-step error stays valid.
		errs[best] = next[best]
		next[best] = m.Error(fis[best].Kind, fis[best].Point, alloc[best]+1)
	}
	return alloc, nil
}

// UniformAllocate splits the budget evenly (remainder to the lowest
// indices). It exists as the ablation baseline for Lemma 6.
func UniformAllocate(n, budget int) ([]int, error) {
	if n == 0 {
		return nil, fmt.Errorf("optimize: no filter indices to allocate to")
	}
	if budget < n {
		return nil, fmt.Errorf("optimize: budget %d below one table per FI (%d FIs)", budget, n)
	}
	alloc := make([]int, n)
	for i := range alloc {
		alloc[i] = budget / n
	}
	for i := 0; i < budget%n; i++ {
		alloc[i]++
	}
	return alloc, nil
}

// Placement selects where partition points go.
type Placement int

const (
	// Equidepth places cuts at equal-mass quantiles (Definition 10) — the
	// paper's choice, optimal for worst-case precision (Lemma 4).
	Equidepth Placement = iota
	// Uniform places cuts at equal-width positions; the ablation baseline.
	Uniform
)

// answerFrac is the reference expected answer size of a query, as a
// fraction of the pair-mass, used by the Definition 9 precision model:
// worst-case precision of an interval is the answer mass over the interval
// mass a narrow query must drag along.
const answerFrac = 0.01

// Options configures BuildPlan.
type Options struct {
	// Budget is the total number of hash tables the index may use (the
	// paper's space constraint). Required.
	Budget int
	// RecallTarget is T, the expected worst-case recall threshold
	// (Objective 2). Defaults to 0.9.
	RecallTarget float64
	// MaxFIs caps the interval-growing loop. Defaults to 16. The paper's
	// loop additionally stops at T/(1-a) intervals (Lemma 5); use
	// PrecisionGainCap to derive such a cap if desired.
	MaxFIs int
	// Placement selects equidepth (default) or uniform cut placement.
	Placement Placement
	// Allocation selects greedy (default, Lemma 6) or uniform budgeting.
	Allocation Allocation
	// SignatureK is the min-hash signature length k of the embedding the
	// plan will serve; the capture model averages over the Binomial
	// agreement distribution it induces. Zero selects the cheaper
	// mean-Hamming approximation.
	SignatureK int
	// Objective selects which recall figure the Figure 4 loop holds above
	// RecallTarget. The paper's lemmas are stated for the worst case; its
	// experiments "optimize the index for 90% average recall", which is
	// the default here (mass-weighted over intervals).
	Objective RecallObjective
}

// RecallObjective selects the recall figure the construction loop guards.
type RecallObjective int

const (
	// AverageRecall guards the mass-weighted average interval recall —
	// what Section 6's experiments optimize.
	AverageRecall RecallObjective = iota
	// WorstCaseRecall guards the minimum interval recall — the figure the
	// Section 5 lemmas are stated for.
	WorstCaseRecall
)

// Allocation selects the hash-table budgeting strategy.
type Allocation int

const (
	// Greedy is the paper's allocator (Figure 5).
	Greedy Allocation = iota
	// UniformTables splits the budget evenly; the ablation baseline.
	UniformTables
)

// PrecisionGainCap returns the paper's Lemma 5 bound T/(1-a) on the number
// of intervals beyond which splitting no longer improves expected
// worst-case precision, for recall level T and expected answer-size
// fraction a (both in (0,1)).
func PrecisionGainCap(t, a float64) int {
	if a >= 1 {
		return math.MaxInt32
	}
	c := int(t / (1 - a))
	if c < 1 {
		c = 1
	}
	return c
}

// IntervalStats reports the expected quality of one partition interval.
type IntervalStats struct {
	// Lo, Hi delimit the interval on the Jaccard scale.
	Lo, Hi float64
	// Recall is the expected recall for interval-aligned queries (Def 8).
	Recall float64
	// Precision is the Definition 9 expected precision for a query of the
	// reference answer size inside this interval: E_ia/(E_ia + E_ie),
	// where E_ie is the extra in-interval mass the enclosing partition
	// points force into memory. The filters' capture rate cancels, so
	// this reduces to answerMass/intervalMass (capped at 1) — exactly the
	// quantity equidepth placement equalizes (Lemma 4).
	Precision float64
	// CandidatePrecision additionally accounts for out-of-interval false
	// positives leaking through the filters: true captured mass over all
	// captured mass. This matches what the measurement harness reports as
	// results/candidates. Informational; the optimizer's objectives use
	// Recall and Precision.
	CandidatePrecision float64
	// Mass is the distribution mass inside the interval.
	Mass float64
}

// Plan is the output of BuildPlan: a fully specified index layout.
type Plan struct {
	// Cuts are the interior partition points, ascending, on the Jaccard
	// scale. Together with the implicit 0 and 1 they delimit the
	// similarity intervals.
	Cuts []float64
	// FIs are the planned filter indices, ascending by Point; the point
	// closest to δ carries both a DFI and an SFI (two entries).
	FIs []FI
	// Delta is the equal-mass split point (Equation 15).
	Delta float64
	// Budget echoes the table budget the plan was built for.
	Budget int
	// RecallTarget echoes T.
	RecallTarget float64
	// K is the signature length the capture model was evaluated for.
	K int
	// WorstRecall is the minimum expected interval recall of the plan.
	WorstRecall float64
	// AvgRecall is the mass-weighted average interval recall.
	AvgRecall float64
	// WorstPrecision is the minimum expected interval precision.
	WorstPrecision float64
	// Intervals holds per-interval expectations.
	Intervals []IntervalStats
	// Probes holds the FI-centered recall probes the recall figures are
	// computed from (Figure 4 computes "the expected recall of similarity
	// ranges of width t around the FIs"; such a range is answered by the
	// structures at its neighboring partition points).
	Probes []ProbeStats
	// RecallMet records whether WorstRecall >= RecallTarget. A plan with a
	// single partition point is returned even when the target is
	// unattainable with the given budget; this flag says so.
	RecallMet bool
}

// Bounds on a plan an index installs (Plan.Validate).
const (
	MaxPlanFIs = 1 << 10 // filter indices in a plan
	MaxTables  = 1 << 16 // hash tables per filter index
)

// Validate reports an error unless the plan has at most MaxPlanFIs filter
// indices, each at a point inside (0,1) with 1 to MaxTables tables.
func (p *Plan) Validate() error {
	if len(p.FIs) > MaxPlanFIs {
		return fmt.Errorf("optimize: plan has %d filter indices (max %d)", len(p.FIs), MaxPlanFIs)
	}
	for i, fi := range p.FIs {
		if !(fi.Point > 0 && fi.Point < 1) { // phrased so that NaN fails
			return fmt.Errorf("optimize: plan FI %d at point %g outside (0,1)", i, fi.Point)
		}
		if fi.Tables < 1 || fi.Tables > MaxTables {
			return fmt.Errorf("optimize: plan FI %d has %d tables (range [1, %d])", i, fi.Tables, MaxTables)
		}
	}
	return nil
}

// pointKinds returns the FI descriptors for a cut list: DFIs strictly below
// the point closest to delta, SFIs strictly above, and both kinds at the
// closest point itself (Section 5.3).
func pointKinds(cuts []float64, delta float64) []FI {
	if len(cuts) == 0 {
		return nil
	}
	closest := 0
	for i, c := range cuts {
		if math.Abs(c-delta) < math.Abs(cuts[closest]-delta) {
			closest = i
		}
	}
	fis := make([]FI, 0, len(cuts)+1)
	for i, c := range cuts {
		switch {
		case i < closest:
			fis = append(fis, FI{Point: c, Kind: filter.Dissimilar})
		case i == closest:
			fis = append(fis, FI{Point: c, Kind: filter.Dissimilar})
			fis = append(fis, FI{Point: c, Kind: filter.Similar})
		default:
			fis = append(fis, FI{Point: c, Kind: filter.Similar})
		}
	}
	return fis
}

// clampCut keeps partition points usable as filter thresholds.
func clampCut(c float64) float64 {
	const eps = 1e-3
	if c < eps {
		return eps
	}
	if c > 1-eps {
		return 1 - eps
	}
	return c
}

// cutsFor places n interior cuts under the given strategy.
func cutsFor(hist *simdist.Histogram, n int, p Placement) []float64 {
	cuts := make([]float64, 0, n)
	switch p {
	case Uniform:
		for i := 1; i <= n; i++ {
			cuts = append(cuts, clampCut(float64(i)/float64(n+1)))
		}
	default:
		for i := 1; i <= n; i++ {
			cuts = append(cuts, clampCut(hist.Quantile(float64(i)/float64(n+1))))
		}
	}
	sort.Float64s(cuts)
	// Deduplicate: heavy spikes in the distribution can collapse quantiles.
	out := cuts[:0]
	for _, c := range cuts {
		if len(out) == 0 || c > out[len(out)-1]+pointTol {
			out = append(out, c)
		}
	}
	return out
}

// planRuns counts BuildPlan invocations process-wide. The sharded engine's
// single-pass build promises the optimizer runs once per build (not once
// per shard); tests pin that promise by reading PlanRuns deltas.
var planRuns atomic.Int64

// PlanRuns returns the process-wide number of BuildPlan invocations.
func PlanRuns() int64 { return planRuns.Load() }

// BuildPlan runs the index construction algorithm of Figure 4 against the
// similarity distribution hist.
func BuildPlan(hist *simdist.Histogram, opt Options) (Plan, error) {
	planRuns.Add(1)
	if opt.Budget < 2 {
		return Plan{}, fmt.Errorf("optimize: budget must be >= 2 (the minimal plan has an SFI and a DFI), got %d", opt.Budget)
	}
	target := opt.RecallTarget
	if target == 0 {
		target = 0.9
	}
	if !(target >= 0 && target <= 1) { // NaN fails both comparisons
		return Plan{}, fmt.Errorf("optimize: recall target must be in [0,1], got %g", target)
	}
	maxFIs := opt.MaxFIs
	if maxFIs <= 0 {
		maxFIs = 16
	}
	m := NewModelK(hist, opt.SignatureK)

	// Grow the number of intervals and keep the finest decomposition whose
	// expected recall still clears the target: precision improves with
	// intervals (Lemma 5) while recall degrades (Lemma 3), but not
	// perfectly monotonically on real distributions, so every candidate
	// count up to MaxFIs is evaluated rather than stopping at the first
	// failure.
	var best, fallback *Plan
	for n := 1; n <= maxFIs; n++ {
		plan, err := m.planStep(hist, n, opt, target)
		if opt.Budget < len(plan.FIs) {
			break // cannot give each FI a table
		}
		if err != nil {
			return Plan{}, err
		}
		if plan.guardedRecall(opt.Objective) >= target {
			best = &plan
		}
		if fallback == nil || plan.guardedRecall(opt.Objective) > fallback.guardedRecall(opt.Objective) {
			fallback = &plan
		}
		if len(plan.Cuts) < n {
			break // quantiles collapsed; more intervals are unobtainable
		}
	}
	if best != nil {
		return *best, nil
	}
	if fallback != nil {
		// No decomposition meets the target: return the best-recall plan,
		// flagged, rather than failing — the caller may accept it or raise
		// the budget.
		return *fallback, nil
	}
	return Plan{}, fmt.Errorf("optimize: could not construct any plan within budget %d", opt.Budget)
}

// BuildPlanFixedIntervals constructs a plan with exactly n interior cuts,
// skipping the Figure 4 recall loop. It exists for ablation experiments
// that sweep the interval count directly (Lemmas 3 and 5).
func BuildPlanFixedIntervals(hist *simdist.Histogram, n int, opt Options) (Plan, error) {
	if n < 1 {
		return Plan{}, fmt.Errorf("optimize: need at least 1 cut, got %d", n)
	}
	plan, err := NewModelK(hist, opt.SignatureK).planStep(hist, n, opt, opt.RecallTarget)
	if err != nil {
		return Plan{}, err
	}
	return plan, nil
}

// planStep is one step of the Figure 4 construction: n cuts placed per
// opt.Placement, the FIs their points call for, opt.Budget allocated over
// those FIs per opt.Allocation, each FI's r solved, and the plan assembled
// against target. On an error the plan holds just the unallocated FIs, so
// a caller can tell a budget short of one table per FI, which both
// allocators reject.
func (m *Model) planStep(hist *simdist.Histogram, n int, opt Options, target float64) (Plan, error) {
	delta := hist.Delta()
	cuts := cutsFor(hist, n, opt.Placement)
	fis := pointKinds(cuts, delta)
	var alloc []int
	var err error
	if opt.Allocation == UniformTables {
		alloc, err = UniformAllocate(len(fis), opt.Budget)
	} else {
		alloc, err = m.GreedyAllocate(fis, opt.Budget)
	}
	if err != nil {
		return Plan{FIs: fis}, err
	}
	for i := range fis {
		fis[i].Tables = alloc[i]
		fis[i].R = solveR(fis[i].Kind, fis[i].Point, alloc[i])
	}
	return assemble(hist, cuts, fis, delta, opt.Budget, target, opt.Objective, opt.SignatureK), nil
}

// assemble computes interval expectations and packages a Plan.
func assemble(hist *simdist.Histogram, cuts []float64, fis []FI, delta float64, budget int, target float64, objective RecallObjective, k int) Plan {
	plan := Plan{
		Cuts:         cuts,
		FIs:          fis,
		Delta:        delta,
		Budget:       budget,
		RecallTarget: target,
		K:            k,
	}
	kern := newKernel(k)
	answerMass := answerFrac * hist.Total()
	bounds := append(append([]float64{0}, cuts...), 1)
	worstR, worstP := 1.0, 1.0
	for i := 0; i+1 < len(bounds); i++ {
		st := intervalStats(hist, fis, bounds[i], bounds[i+1], answerMass, kern)
		plan.Intervals = append(plan.Intervals, st)
		if st.Mass > 0 && st.Precision < worstP {
			worstP = st.Precision
		}
	}
	// Recall probes: Definition 8 averages over the query workload, which
	// the paper takes as uniformly distributed similarity ranges. Probe a
	// grid of ranges; each is processed with its minimally enclosing
	// partition points and weighted by its expected answer mass. Ranges
	// with negligible answers are skipped for the worst-case figure (an
	// empty-answer query has no recall to lose).
	massSum, recallSum := 0.0, 0.0
	minMass := hist.Total() * 1e-3
	for _, width := range []float64{0.05, 0.15, 0.25} {
		for lo := 0.0; lo+width <= 1.0001; lo += 0.05 {
			hi := lo + width
			if hi > 1 {
				hi = 1
			}
			mass := hist.Mass(lo, hi)
			if mass <= 0 {
				continue
			}
			elo, ehi := encloseIn(cuts, lo, hi)
			got := hist.Integrate(lo, hi, captureCombined(fis, elo, ehi, kern))
			rec := got / mass
			plan.Probes = append(plan.Probes, ProbeStats{Lo: lo, Hi: hi, Mass: mass, Recall: rec})
			massSum += mass
			recallSum += mass * rec
			if mass >= minMass && rec < worstR {
				worstR = rec
			}
		}
	}
	plan.WorstRecall = worstR
	plan.AvgRecall = 1
	if massSum > 0 {
		plan.AvgRecall = recallSum / massSum
	}
	plan.WorstPrecision = worstP
	plan.RecallMet = plan.guardedRecall(objective) >= target
	return plan
}

// encloseIn returns the partition points among {0} ∪ cuts ∪ {1} minimally
// enclosing [a, b].
func encloseIn(cuts []float64, a, b float64) (lo, hi float64) {
	lo, hi = 0.0, 1.0
	for _, c := range cuts {
		if c <= a && c > lo {
			lo = c
		}
		if c >= b && c < hi {
			hi = c
		}
	}
	return lo, hi
}

// ProbeStats is one query-range recall probe.
type ProbeStats struct {
	// Lo, Hi delimit the probed query range.
	Lo, Hi float64
	// Mass is the expected answer mass of the range.
	Mass float64
	// Recall is the expected recall of the probe query.
	Recall float64
}

// guardedRecall returns the recall figure an objective guards.
func (p *Plan) guardedRecall(obj RecallObjective) float64 {
	if obj == WorstCaseRecall {
		return p.WorstRecall
	}
	return p.AvgRecall
}

// Combination is the Section 4.3 filter combination answering a range
// enclosed by two partition points. Each field is an ordinal into
// Plan.FIs, or -1 for an absent term; the candidates are
// (PosA \ NegA) ∪ (PosB \ NegB). Every consumer of the case analysis —
// the probe, the direct scan, the probe-cost count and the capture model —
// reads this one decision.
type Combination struct{ PosA, NegA, PosB, NegB int }

// pointTol is the tolerance of identity checks on partition points. A
// plan stores its cuts and its FI points as separate values, and a decoded
// snapshot may carry either a few ulps away from the other, so resolving a
// range endpoint to the FI planned at that point needs a tolerance, not ==
// (TestLoadToleratesOneULPCuts in internal/core). Points are O(1) values
// computed in a handful of float64 operations: 1e-9 is far above their
// rounding error and far below any meaningful similarity difference, and
// cutsFor deduplicates cuts by the same tolerance.
const pointTol = 1e-9

// fiAt returns the ordinal of the planned FI of the given kind at point p,
// or -1.
func fiAt(fis []FI, p float64, kind filter.Kind) int {
	for i, fi := range fis {
		if math.Abs(fi.Point-p) <= pointTol && fi.Kind == kind {
			return i
		}
	}
	return -1
}

// combine is the Section 4.3 case analysis for the enclosing partition
// points (lo, hi):
//
//   - both endpoints in the DFI region: DissimVector(hi) \ DissimVector(lo)
//     (DissimVector(0) is empty);
//   - both endpoints in the SFI region: SimVector(lo) \ SimVector(hi)
//     (SimVector(1) is empty);
//   - mixed, or the degenerate [0, 1]: (DissimVector(δ) \ DissimVector(lo))
//     ∪ (SimVector(δ) \ SimVector(hi)), where δ is the first point carrying
//     both kinds (Section 5.3 places exactly one).
//
// ok is false when the range is mixed and no point carries both kinds.
func combine(fis []FI, lo, hi float64) (c Combination, ok bool) {
	c = Combination{PosA: -1, NegA: -1, PosB: -1, NegB: -1}
	if c.PosA = fiAt(fis, hi, filter.Dissimilar); c.PosA >= 0 {
		if lo > 0 {
			c.NegA = fiAt(fis, lo, filter.Dissimilar)
		}
		return c, true
	}
	if c.PosA = fiAt(fis, lo, filter.Similar); c.PosA >= 0 {
		if hi < 1 {
			c.NegA = fiAt(fis, hi, filter.Similar)
		}
		return c, true
	}
	for i, fi := range fis {
		if fi.Kind != filter.Dissimilar {
			continue
		}
		if c.PosB = fiAt(fis, fi.Point, filter.Similar); c.PosB >= 0 {
			c.PosA = i
			if lo > 0 {
				c.NegA = fiAt(fis, lo, filter.Dissimilar)
			}
			if hi < 1 {
				c.NegB = fiAt(fis, hi, filter.Similar)
			}
			return c, true
		}
	}
	return c, false
}

// captureCombined returns the probability, as a function of similarity s,
// that a set survives the combination answering the enclosed range
// [lo, hi]. The combination is resolved once, not once per evaluation.
// Independence across the structures' samples is assumed for the union
// probability.
func captureCombined(fis []FI, lo, hi float64, kern *kernel) func(s float64) float64 {
	c, ok := combine(fis, lo, hi)
	if !ok {
		return func(float64) float64 { return 0 }
	}
	curve := func(ord int) func(float64) float64 {
		fi := fis[ord]
		return kern.curve(fi.Kind, fi.Point, fi.Tables)
	}
	term := func(pos, neg int) func(float64) float64 {
		p := curve(pos)
		if neg < 0 {
			return p
		}
		n := curve(neg)
		return func(s float64) float64 { return p(s) * (1 - n(s)) }
	}
	a := term(c.PosA, c.NegA)
	if c.PosB < 0 {
		return a
	}
	b := term(c.PosB, c.NegB)
	return func(s float64) float64 {
		x, y := a(s), b(s)
		return x + y - x*y
	}
}

// intervalStats computes expected recall (Def 8) and precision (Def 9) for
// a query of the reference answer mass inside the interval [lo, hi].
func intervalStats(hist *simdist.Histogram, fis []FI, lo, hi float64, answerMass float64, kern *kernel) IntervalStats {
	mass := hist.Mass(lo, hi)
	capture := captureCombined(fis, lo, hi, kern)
	trueCaptured := hist.Integrate(lo, hi, capture)
	extraBelow := hist.Integrate(0, lo, capture)
	extraAbove := hist.Integrate(hi, 1, capture)
	st := IntervalStats{Lo: lo, Hi: hi, Mass: mass}
	if mass > 0 {
		st.Recall = trueCaptured / mass
	} else {
		st.Recall = 1
	}
	// Definition 9: a query whose answer has mass answerMass inside this
	// interval drags the whole interval's captured mass into memory; the
	// filters' average capture rate cancels between numerator and
	// denominator, leaving answerMass/mass.
	st.Precision = 1
	if mass > answerMass && mass > 0 {
		st.Precision = answerMass / mass
	}
	denom := trueCaptured + extraBelow + extraAbove
	if denom > 0 {
		st.CandidatePrecision = trueCaptured / denom
	} else {
		st.CandidatePrecision = 1
	}
	return st
}

// ExpectedRecall predicts the recall of an arbitrary query range [a, b]
// under the plan, assuming the query is processed with the partition points
// minimally enclosing [a, b]. Used by tests and the evaluation harness to
// compare model predictions with measurements.
func (p *Plan) ExpectedRecall(hist *simdist.Histogram, a, b float64) float64 {
	lo, hi := p.Enclose(a, b)
	mass := hist.Mass(a, b)
	if mass == 0 {
		return 1
	}
	return hist.Integrate(a, b, p.CaptureAt(lo, hi)) / mass
}

// CaptureAt returns the probability, as a function of Jaccard similarity
// s, that a set is produced as a candidate when a query is processed with
// the enclosing partition points (lo, hi) — the plan-level capture model
// used for recall probes and candidate-count prediction. Resolve it once
// per integral: the function caches the capture model's parts it has
// evaluated and is not safe for concurrent use.
func (p *Plan) CaptureAt(lo, hi float64) func(s float64) float64 {
	return captureCombined(p.FIs, lo, hi, newKernel(p.K))
}

// Combination returns the Section 4.3 filter combination for the enclosing
// partition points (lo, hi); ok is false when the range needs the point
// carrying both kinds and the plan has none.
func (p *Plan) Combination(lo, hi float64) (Combination, bool) {
	return combine(p.FIs, lo, hi)
}

// Enclose returns the partition points minimally enclosing [a, b].
func (p *Plan) Enclose(a, b float64) (lo, hi float64) { return encloseIn(p.Cuts, a, b) }
