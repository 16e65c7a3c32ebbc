package core

import (
	"testing"

	"repro/internal/embed"
	"repro/internal/filter"
	"repro/internal/optimize"
	"repro/internal/set"
	"repro/internal/workload"
)

// fixedPlanIndex builds an index with a hand-written plan so the
// Section 4.3 case logic can be probed deterministically: DFIs at 0.2 and
// 0.4, both kinds at 0.4 (the δ point), SFIs at 0.4 and 0.7.
func fixedPlanIndex(t *testing.T) (*Index, []set.Set) {
	t.Helper()
	sets, err := workload.Generate(workload.Set1Params(300))
	if err != nil {
		t.Fatal(err)
	}
	plan := optimize.Plan{
		Cuts:  []float64{0.2, 0.4, 0.7},
		Delta: 0.4,
		FIs: []optimize.FI{
			{Point: 0.2, Kind: filter.Dissimilar, Tables: 6, R: 3},
			{Point: 0.4, Kind: filter.Dissimilar, Tables: 6, R: 3},
			{Point: 0.4, Kind: filter.Similar, Tables: 6, R: 6},
			{Point: 0.7, Kind: filter.Similar, Tables: 6, R: 9},
		},
		Budget: 24,
		K:      32,
	}
	ix, err := Build(sets, Options{
		Embed:        embed.Options{K: 32, Bits: 8, Seed: 6},
		PlanOverride: &plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ix, sets
}

func TestPlanOverrideInstalled(t *testing.T) {
	ix, _ := fixedPlanIndex(t)
	if got := ix.Plan().Cuts; len(got) != 3 || got[0] != 0.2 || got[2] != 0.7 {
		t.Fatalf("cuts = %v", got)
	}
	fis := ix.FilterIndexes()
	if len(fis) != 4 {
		t.Fatalf("built %d FIs, want 4", len(fis))
	}
	// DFIs at 0.2 and 0.4, SFIs at 0.4 and 0.7, in order.
	wantKinds := []filter.Kind{filter.Dissimilar, filter.Dissimilar, filter.Similar, filter.Similar}
	wantPoints := []float64{0.2, 0.4, 0.4, 0.7}
	for i, fi := range fis {
		if fi.Kind != wantKinds[i] || fi.Point != wantPoints[i] {
			t.Errorf("FI %d = %v@%g, want %v@%g", i, fi.Kind, fi.Point, wantKinds[i], wantPoints[i])
		}
	}
}

// TestEnclosureCases verifies that each query range resolves to the
// partition points (and hence the combination case) Section 4.3 dictates.
func TestEnclosureCases(t *testing.T) {
	ix, sets := fixedPlanIndex(t)
	cases := []struct {
		lo, hi         float64
		wantLo, wantHi float64
	}{
		{0.05, 0.15, 0.0, 0.2}, // both in DFI region (lo = 0 special case)
		{0.25, 0.35, 0.2, 0.4}, // both DFI points
		{0.45, 0.65, 0.4, 0.7}, // both SFI points
		{0.75, 0.95, 0.7, 1.0}, // SFI + special up = 1
		{0.25, 0.55, 0.2, 0.7}, // mixed: spans the δ point
		{0.05, 0.95, 0.0, 1.0}, // degenerate: everything
	}
	for _, tc := range cases {
		var stats QueryStats
		if _, err := ix.Candidates(sets[0], tc.lo, tc.hi, &stats); err != nil {
			t.Fatalf("[%g,%g]: %v", tc.lo, tc.hi, err)
		}
		if stats.EnclosedLo != tc.wantLo || stats.EnclosedHi != tc.wantHi {
			t.Errorf("[%g,%g]: enclosed (%g,%g), want (%g,%g)",
				tc.lo, tc.hi, stats.EnclosedLo, stats.EnclosedHi, tc.wantLo, tc.wantHi)
		}
	}
}

// TestCaseCorrectness runs one query per case and checks result exactness
// (no false positives is guaranteed by verification; this guards the case
// plumbing end to end).
func TestCaseCorrectness(t *testing.T) {
	ix, sets := fixedPlanIndex(t)
	for _, r := range [][2]float64{
		{0.05, 0.15}, {0.25, 0.35}, {0.45, 0.65}, {0.75, 0.95}, {0.25, 0.55}, {0, 1},
	} {
		matches, _, err := ix.QueryWithOptions(sets[3], r[0], r[1], QueryOptions{})
		if err != nil {
			t.Fatalf("[%g,%g]: %v", r[0], r[1], err)
		}
		for _, m := range matches {
			sim := sets[3].Jaccard(sets[m.SID])
			if sim < r[0] || sim > r[1] {
				t.Errorf("[%g,%g]: returned sid %d at similarity %g", r[0], r[1], m.SID, sim)
			}
			if sim != m.Similarity {
				t.Errorf("similarity mismatch: %g vs %g", sim, m.Similarity)
			}
		}
	}
	// The full range must return every live set (identical vectors always
	// collide, and [0,1] unions both δ structures).
	all, _, err := ix.QueryWithOptions(sets[3], 0, 1, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Full-range recall isn't guaranteed to be perfect (capture < 1 away
	// from the δ point), but the query set itself must be present.
	foundSelf := false
	for _, m := range all {
		if m.SID == 3 {
			foundSelf = true
		}
	}
	if !foundSelf {
		t.Error("self not retrieved on the full range")
	}
}

// TestResultsSubsetOfExact is the containment property: every index result
// appears in the exact answer, for many random queries across all cases.
func TestResultsSubsetOfExact(t *testing.T) {
	ix, sets := fixedPlanIndex(t)
	qs, err := workload.Queries(len(sets), workload.QueryParams{Count: 40, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		matches, _, err := ix.QueryWithOptions(sets[q.SID], q.Lo, q.Hi, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		truth := exactAnswer(sets, sets[q.SID], q.Lo, q.Hi)
		for _, m := range matches {
			if _, ok := truth[m.SID]; !ok {
				t.Fatalf("query %v: result %d not in exact answer", q, m.SID)
			}
		}
	}
}

// TestProbeTablesPerCase pins the probe count the planner prices: the
// tables of exactly the filter indices each Section 4.3 case combines
// (every FI of the fixed plan has 6 tables).
func TestProbeTablesPerCase(t *testing.T) {
	ix, _ := fixedPlanIndex(t)
	cases := []struct {
		lo, hi float64
		want   int
	}{
		{0.05, 0.15, 6},  // DFI(0.2)
		{0.25, 0.35, 12}, // DFI(0.4) \ DFI(0.2)
		{0.45, 0.65, 12}, // SFI(0.4) \ SFI(0.7)
		{0.75, 0.95, 6},  // SFI(0.7)
		{0.25, 0.55, 24}, // mixed: both δ structures and both negatives
		{0.05, 0.95, 12}, // degenerate: both δ structures only
	}
	for _, tc := range cases {
		if got := ix.ProbeTables(tc.lo, tc.hi); got != tc.want {
			t.Errorf("[%g,%g]: ProbeTables = %d, want %d", tc.lo, tc.hi, got, tc.want)
		}
	}
}
