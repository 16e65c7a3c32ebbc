package optimize

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/filter"
	"repro/internal/simdist"
)

// webLikeHist builds a histogram shaped like the paper's data: sharply
// dropping with similarity, plus a small high-similarity tail.
func webLikeHist() *simdist.Histogram {
	h := simdist.NewHistogram(200)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		h.Add(math.Abs(rng.NormFloat64())*0.12, 1)
	}
	for i := 0; i < 800; i++ {
		h.Add(0.75+rng.Float64()*0.25, 1)
	}
	return h
}

func TestTurningHamming(t *testing.T) {
	if got := turningHamming(filter.Similar, 0.8); math.Abs(got-0.9) > 1e-12 {
		t.Errorf("SFI turning = %g, want 0.9", got)
	}
	if got := turningHamming(filter.Dissimilar, 0.8); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("DFI turning = %g, want 0.1", got)
	}
}

func TestCaptureMonotonicity(t *testing.T) {
	prev := -1.0
	for s := 0.0; s <= 1.0; s += 0.02 {
		p := Capture(filter.Similar, 0.7, 20, 0, s)
		if p < prev-1e-12 {
			t.Fatalf("SFI capture decreasing at s=%g", s)
		}
		prev = p
	}
	prev = 2.0
	for s := 0.0; s <= 1.0; s += 0.02 {
		p := Capture(filter.Dissimilar, 0.3, 20, 0, s)
		if p > prev+1e-12 {
			t.Fatalf("DFI capture increasing at s=%g", s)
		}
		prev = p
	}
	if Capture(filter.Similar, 0.7, 0, 0, 0.9) != 0 {
		t.Error("zero tables should capture nothing")
	}
}

func TestErrorDecreasesWithTables(t *testing.T) {
	m := NewModel(webLikeHist())
	// More tables steepen the curve, so FP+FN error must shrink (weakly)
	// at a fixed threshold.
	prev := math.Inf(1)
	for _, l := range []int{1, 2, 4, 8, 16, 32, 64} {
		e := m.Error(filter.Similar, 0.7, l)
		if e > prev*1.05 { // allow slight rounding wiggle from integer r
			t.Errorf("error grew from %g to %g at l=%d", prev, e, l)
		}
		prev = e
	}
}

func TestFalsePositiveNegativeRegions(t *testing.T) {
	m := NewModel(webLikeHist())
	// For an SFI, FP integrates below the threshold, FN above. With a
	// distribution massed near zero, SFI FP should dwarf SFI FN at a high
	// threshold with a loose filter.
	fp := m.FalsePositives(filter.Similar, 0.9, 1)
	fn := m.FalseNegatives(filter.Similar, 0.9, 1)
	if fp <= 0 {
		t.Error("expected positive FP mass")
	}
	if fn < 0 {
		t.Error("negative FN mass")
	}
	// DFI mirrors: FP above threshold.
	fpD := m.FalsePositives(filter.Dissimilar, 0.1, 1)
	if fpD < 0 {
		t.Error("negative DFI FP mass")
	}
}

func TestGreedyAllocate(t *testing.T) {
	m := NewModel(webLikeHist())
	fis := []FI{
		{Point: 0.1, Kind: filter.Dissimilar},
		{Point: 0.3, Kind: filter.Dissimilar},
		{Point: 0.3, Kind: filter.Similar},
		{Point: 0.8, Kind: filter.Similar},
	}
	alloc, err := m.GreedyAllocate(fis, 40)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for i, a := range alloc {
		if a < 1 {
			t.Errorf("FI %d got %d tables", i, a)
		}
		total += a
	}
	if total != 40 {
		t.Errorf("allocated %d, want 40", total)
	}
}

func TestGreedyAllocateValidation(t *testing.T) {
	m := NewModel(webLikeHist())
	if _, err := m.GreedyAllocate(nil, 10); err == nil {
		t.Error("no FIs accepted")
	}
	fis := []FI{{Point: 0.5, Kind: filter.Similar}, {Point: 0.7, Kind: filter.Similar}}
	if _, err := m.GreedyAllocate(fis, 1); err == nil {
		t.Error("budget below FI count accepted")
	}
}

func TestUniformAllocate(t *testing.T) {
	alloc, err := UniformAllocate(3, 11)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{4, 4, 3}
	for i := range want {
		if alloc[i] != want[i] {
			t.Errorf("alloc = %v, want %v", alloc, want)
			break
		}
	}
	if _, err := UniformAllocate(0, 5); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := UniformAllocate(5, 3); err == nil {
		t.Error("budget < n accepted")
	}
}

func TestGreedyBeatsUniformOnWorstRecall(t *testing.T) {
	// Lemma 6's claim, checked through the model: plans built with greedy
	// allocation should have worst-case recall at least as good as uniform.
	hist := webLikeHist()
	build := func(a Allocation) Plan {
		p, err := BuildPlan(hist, Options{Budget: 60, RecallTarget: 0.5, MaxFIs: 3, Allocation: a})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	greedy := build(Greedy)
	uniform := build(UniformTables)
	if greedy.WorstRecall+1e-9 < uniform.WorstRecall-0.05 {
		t.Errorf("greedy worst recall %.3f well below uniform %.3f", greedy.WorstRecall, uniform.WorstRecall)
	}
}

func TestPointKinds(t *testing.T) {
	cuts := []float64{0.1, 0.3, 0.6, 0.9}
	fis := pointKinds(cuts, 0.35)
	// The closest point to delta (0.3) gets both kinds.
	both := 0
	for _, fi := range fis {
		switch fi.Point {
		case 0.1:
			if fi.Kind != filter.Dissimilar {
				t.Errorf("0.1 is %v, want DFI", fi.Kind)
			}
		case 0.3:
			both++
		case 0.6, 0.9:
			if fi.Kind != filter.Similar {
				t.Errorf("%g is %v, want SFI", fi.Point, fi.Kind)
			}
		}
	}
	if both != 2 {
		t.Errorf("delta point has %d structures, want 2", both)
	}
	if len(fis) != 5 {
		t.Errorf("total FIs = %d, want 5", len(fis))
	}
	if pointKinds(nil, 0.5) != nil {
		t.Error("no cuts should produce no FIs")
	}
}

func TestBuildPlanBasic(t *testing.T) {
	hist := webLikeHist()
	plan, err := BuildPlan(hist, Options{Budget: 100, RecallTarget: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Cuts) == 0 {
		t.Fatal("no cuts")
	}
	// Each cut must carry at least one FI, tables sum to <= budget.
	total := 0
	for _, fi := range plan.FIs {
		if fi.Tables < 1 {
			t.Errorf("FI at %g has %d tables", fi.Point, fi.Tables)
		}
		if fi.R < 1 {
			t.Errorf("FI at %g has r=%d", fi.Point, fi.R)
		}
		total += fi.Tables
	}
	if total != plan.Budget {
		t.Errorf("allocated %d of budget %d", total, plan.Budget)
	}
	if plan.RecallMet && plan.WorstRecall < plan.RecallTarget {
		t.Error("RecallMet flag inconsistent")
	}
	// A point carries both kinds: the full range combines around it.
	if c, ok := plan.Combination(0, 1); !ok || c.PosB < 0 {
		t.Error("no delta point with both kinds")
	}
	// Cuts ascending and clamped inside (0, 1).
	for i, c := range plan.Cuts {
		if c <= 0 || c >= 1 {
			t.Errorf("cut %g outside (0,1)", c)
		}
		if i > 0 && plan.Cuts[i-1] >= c {
			t.Error("cuts not ascending")
		}
	}
}

func TestBuildPlanValidation(t *testing.T) {
	hist := webLikeHist()
	if _, err := BuildPlan(hist, Options{Budget: 1}); err == nil {
		t.Error("budget 1 accepted")
	}
	if _, err := BuildPlan(hist, Options{Budget: 10, RecallTarget: 1.5}); err == nil {
		t.Error("recall target 1.5 accepted")
	}
	if _, err := BuildPlan(hist, Options{Budget: 10, RecallTarget: math.NaN()}); err == nil {
		t.Error("recall target NaN accepted")
	}
}

func TestMoreBudgetImprovesRecallAtFixedIntervals(t *testing.T) {
	// At a fixed decomposition, more hash tables steepen every filter, so
	// the model's average recall must not degrade.
	hist := webLikeHist()
	small, err := BuildPlanFixedIntervals(hist, 2, Options{Budget: 10})
	if err != nil {
		t.Fatal(err)
	}
	large, err := BuildPlanFixedIntervals(hist, 2, Options{Budget: 400})
	if err != nil {
		t.Fatal(err)
	}
	if large.AvgRecall < small.AvgRecall-0.02 {
		t.Errorf("recall with 400 tables (%.3f) below 10 tables (%.3f)", large.AvgRecall, small.AvgRecall)
	}
}

func TestLemma3FewerIntervalsHigherRecall(t *testing.T) {
	// Build fixed-interval plans manually and compare worst recall.
	hist := webLikeHist()
	m := NewModel(hist)
	worst := func(n int) float64 {
		cuts := cutsFor(hist, n, Equidepth)
		fis := pointKinds(cuts, hist.Delta())
		alloc, err := m.GreedyAllocate(fis, 60)
		if err != nil {
			t.Fatal(err)
		}
		for i := range fis {
			fis[i].Tables = alloc[i]
		}
		return assemble(hist, cuts, fis, hist.Delta(), 60, 0.5, WorstCaseRecall, 0).WorstRecall
	}
	if w1, w4 := worst(1), worst(6); w1 < w4-0.05 {
		t.Errorf("1-cut worst recall %.3f below 6-cut %.3f (Lemma 3 shape violated)", w1, w4)
	}
}

func TestEquidepthBeatsUniformPrecision(t *testing.T) {
	// Lemma 4's shape on a skewed distribution.
	hist := webLikeHist()
	build := func(p Placement) Plan {
		plan, err := BuildPlan(hist, Options{Budget: 80, RecallTarget: 0.5, MaxFIs: 4, Placement: p})
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}
	eq := build(Equidepth)
	un := build(Uniform)
	if eq.WorstPrecision < un.WorstPrecision-0.1 {
		t.Errorf("equidepth worst precision %.3f well below uniform %.3f", eq.WorstPrecision, un.WorstPrecision)
	}
}

func TestPrecisionGainCap(t *testing.T) {
	if got := PrecisionGainCap(0.9, 0.9); got != 9 {
		t.Errorf("cap = %d, want 9", got)
	}
	if got := PrecisionGainCap(0.9, 1.0); got != math.MaxInt32 {
		t.Errorf("cap at a=1 should be unbounded, got %d", got)
	}
	if got := PrecisionGainCap(0.1, 0.5); got != 1 {
		t.Errorf("cap floor = %d, want 1", got)
	}
}

func TestEnclose(t *testing.T) {
	p := Plan{Cuts: []float64{0.2, 0.5, 0.8}}
	cases := []struct{ a, b, lo, hi float64 }{
		{0.3, 0.4, 0.2, 0.5},
		{0.1, 0.15, 0, 0.2},
		{0.85, 0.9, 0.8, 1},
		{0.2, 0.8, 0.2, 0.8},
		{0.05, 0.95, 0, 1},
	}
	for _, c := range cases {
		lo, hi := p.Enclose(c.a, c.b)
		if lo != c.lo || hi != c.hi {
			t.Errorf("Enclose(%g,%g) = (%g,%g), want (%g,%g)", c.a, c.b, lo, hi, c.lo, c.hi)
		}
	}
}

func TestExpectedRecallInRange(t *testing.T) {
	hist := webLikeHist()
	plan, err := BuildPlan(hist, Options{Budget: 100, RecallTarget: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range [][2]float64{{0, 0.1}, {0.4, 0.6}, {0.8, 1}, {0.1, 0.9}} {
		rec := plan.ExpectedRecall(hist, r[0], r[1])
		if rec < 0 || rec > 1+1e-9 {
			t.Errorf("recall(%v) = %g out of range", r, rec)
		}
	}
}

func TestIntervalStatsEmptyInterval(t *testing.T) {
	h := simdist.NewHistogram(10)
	h.Add(0.05, 5)
	st := intervalStats(h, []FI{{Point: 0.5, Kind: filter.Similar, Tables: 4}}, 0.5, 0.9, 0.01, newKernel(0))
	if st.Recall != 1 || st.Mass != 0 || st.Precision != 1 {
		t.Errorf("empty interval stats = %+v", st)
	}
}

func TestLemma5MoreIntervalsBetterPrecision(t *testing.T) {
	// Splitting the range into more equidepth intervals shrinks the
	// per-interval mass a narrow query drags along, improving worst-case
	// Definition 9 precision.
	hist := webLikeHist()
	m := NewModel(hist)
	worstP := func(n int) float64 {
		cuts := cutsFor(hist, n, Equidepth)
		fis := pointKinds(cuts, hist.Delta())
		alloc, err := m.GreedyAllocate(fis, 60)
		if err != nil {
			t.Fatal(err)
		}
		for i := range fis {
			fis[i].Tables = alloc[i]
		}
		return assemble(hist, cuts, fis, hist.Delta(), 60, 0.5, WorstCaseRecall, 0).WorstPrecision
	}
	if p1, p6 := worstP(1), worstP(6); p6 <= p1 {
		t.Errorf("worst precision did not improve with intervals: %g (1 cut) vs %g (6 cuts)", p1, p6)
	}
}

func TestCaptureCombinedCases(t *testing.T) {
	fis := []FI{
		{Point: 0.1, Kind: filter.Dissimilar, Tables: 8},
		{Point: 0.3, Kind: filter.Dissimilar, Tables: 8},
		{Point: 0.3, Kind: filter.Similar, Tables: 8},
		{Point: 0.7, Kind: filter.Similar, Tables: 8},
	}
	// DFI interval: a set at s=0.05 inside [0, 0.1] should be captured well.
	if p := captureCombined(fis, 0, 0.1, newKernel(0))(0.05); p < 0.3 {
		t.Errorf("DFI-case capture = %g, too low", p)
	}
	// SFI interval: a set at s=0.9 inside [0.7, 1] captured well.
	if p := captureCombined(fis, 0.7, 1, newKernel(0))(0.9); p < 0.3 {
		t.Errorf("SFI-case capture = %g, too low", p)
	}
	// Mixed interval [0.1, 0.7]: a set at 0.4 must have nonzero capture.
	if p := captureCombined(fis, 0.1, 0.7, newKernel(0))(0.4); p <= 0 {
		t.Errorf("mixed-case capture = %g", p)
	}
	// All probabilities bounded.
	for s := 0.0; s <= 1; s += 0.1 {
		for _, iv := range [][2]float64{{0, 0.1}, {0.1, 0.3}, {0.3, 0.7}, {0.7, 1}, {0.1, 0.7}, {0, 1}} {
			p := captureCombined(fis, iv[0], iv[1], newKernel(0))(s)
			if p < 0 || p > 1 {
				t.Fatalf("capture(%v, s=%g) = %g", iv, s, p)
			}
		}
	}

	// The combination each case resolves to, as ordinals into fis.
	plan := Plan{Cuts: []float64{0.1, 0.3, 0.7}, FIs: fis}
	for _, tc := range []struct {
		lo, hi float64
		want   Combination
	}{
		{0, 0.1, Combination{PosA: 0, NegA: -1, PosB: -1, NegB: -1}},  // DFI(0.1)
		{0.1, 0.3, Combination{PosA: 1, NegA: 0, PosB: -1, NegB: -1}}, // DFI(0.3) \ DFI(0.1)
		{0.3, 0.7, Combination{PosA: 2, NegA: 3, PosB: -1, NegB: -1}}, // SFI(0.3) \ SFI(0.7)
		{0.7, 1, Combination{PosA: 3, NegA: -1, PosB: -1, NegB: -1}},  // SFI(0.7)
		{0.1, 0.7, Combination{PosA: 1, NegA: 0, PosB: 2, NegB: 3}},   // mixed around δ = 0.3
		{0, 1, Combination{PosA: 1, NegA: -1, PosB: 2, NegB: -1}},     // degenerate
		{0.1, 1, Combination{PosA: 1, NegA: 0, PosB: 2, NegB: -1}},    // mixed, open above
		{0, 0.7, Combination{PosA: 1, NegA: -1, PosB: 2, NegB: 3}},    // mixed, open below
	} {
		got, ok := plan.Combination(tc.lo, tc.hi)
		if !ok || got != tc.want {
			t.Errorf("Combination(%g, %g) = %+v, %v; want %+v", tc.lo, tc.hi, got, ok, tc.want)
		}
	}
	// Without a point carrying both kinds, a mixed range has no
	// combination and captures nothing; pure ranges still resolve.
	noDelta := Plan{Cuts: []float64{0.1, 0.7}, FIs: []FI{fis[0], fis[3]}}
	if c, ok := noDelta.Combination(0.1, 0.7); ok {
		t.Errorf("Combination without a both-kinds point = %+v, want ok == false", c)
	}
	if p := noDelta.CaptureAt(0.1, 0.7)(0.4); p != 0 {
		t.Errorf("capture without a combination = %g, want 0", p)
	}
	if c, ok := noDelta.Combination(0.7, 1); !ok || c.PosA != 1 {
		t.Errorf("Combination(0.7, 1) without δ = %+v, %v", c, ok)
	}
}

func TestBinomialAverageMatchesBruteForce(t *testing.T) {
	f := func(a int) float64 { return float64(a) * float64(a) }
	for _, tc := range []struct {
		k int
		p float64
	}{{10, 0.5}, {40, 0.1}, {25, 0.9}, {64, 0.333}} {
		got := binomialAverage(tc.k, tc.p, f)
		// Brute force over the full support.
		want, wsum := 0.0, 0.0
		for a := 0; a <= tc.k; a++ {
			w := math.Exp(logBinomPmf(tc.k, a, tc.p))
			want += w * f(a)
			wsum += w
		}
		want /= wsum
		if math.Abs(got-want) > want*1e-4+1e-9 {
			t.Errorf("k=%d p=%g: %g, want %g", tc.k, tc.p, got, want)
		}
	}
}

func TestBinomialAverageExtremes(t *testing.T) {
	f := func(a int) float64 { return float64(a) }
	if got := binomialAverage(10, 0, f); got != 0 {
		t.Errorf("p=0: %g", got)
	}
	if got := binomialAverage(10, 1, f); got != 10 {
		t.Errorf("p=1: %g", got)
	}
}

func TestCaptureBinomialLiftsTails(t *testing.T) {
	// Jensen: in the convex lower tail of p_{r,l}, the Binomial-averaged
	// capture must exceed the mean-only approximation.
	const k = 64
	meanOnly := Capture(filter.Similar, 0.6, 50, 0, 0.3)
	averaged := Capture(filter.Similar, 0.6, 50, k, 0.3)
	if averaged <= meanOnly {
		t.Errorf("binomial capture %g not above mean-only %g in the tail", averaged, meanOnly)
	}
	// Both remain proper probabilities and agree at the extremes.
	for _, s := range []float64{0, 1} {
		a, b := Capture(filter.Similar, 0.6, 50, k, s), Capture(filter.Similar, 0.6, 50, 0, s)
		if math.Abs(a-b) > 1e-9 {
			t.Errorf("s=%g: binomial %g vs mean-only %g", s, a, b)
		}
	}
	for s := 0.0; s <= 1; s += 0.1 {
		p := Capture(filter.Similar, 0.6, 50, k, s)
		if p < 0 || p > 1 {
			t.Fatalf("capture out of range at s=%g: %g", s, p)
		}
	}
}

func TestGuardedRecall(t *testing.T) {
	p := Plan{WorstRecall: 0.4, AvgRecall: 0.8}
	if got := p.guardedRecall(AverageRecall); got != 0.8 {
		t.Errorf("average objective = %g", got)
	}
	if got := p.guardedRecall(WorstCaseRecall); got != 0.4 {
		t.Errorf("worst objective = %g", got)
	}
}

func TestBuildPlanFixedIntervalsValidation(t *testing.T) {
	hist := webLikeHist()
	if _, err := BuildPlanFixedIntervals(hist, 0, Options{Budget: 10}); err == nil {
		t.Error("0 cuts accepted")
	}
	if _, err := BuildPlanFixedIntervals(hist, 5, Options{Budget: 2}); err == nil {
		t.Error("budget below FI count accepted")
	}
}
