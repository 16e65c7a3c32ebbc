package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/filter"
	"repro/internal/minhash"
	"repro/internal/optimize"
	"repro/internal/set"
	"repro/internal/workload"
)

// bruteForceVerify is the verify stage with no size bound and no
// screening: fetch every candidate the filter proposes for [lo, hi] and
// keep those whose exact Jaccard falls in the range, in the processor's
// total order.
func bruteForceVerify(t testing.TB, ix *Index, q set.Set, lo, hi float64) []Match {
	t.Helper()
	cands, err := ix.Candidates(q, lo, hi, &QueryStats{})
	if err != nil {
		t.Fatal(err)
	}
	var out []Match
	for _, sid := range cands {
		s, err := ix.Store().Fetch(sid, nil)
		if err != nil {
			t.Fatal(err)
		}
		if sim := q.Jaccard(s); sim >= lo && sim <= hi {
			out = append(out, Match{SID: sid, Similarity: sim})
		}
	}
	sortMatches(out)
	return out
}

// requireFetchAccounting checks the probe arm's verify accounting: every
// candidate is size-pruned, screened or fetched with exactly one random
// read.
func requireFetchAccounting(t testing.TB, label string, st QueryStats) {
	t.Helper()
	if got, want := st.FetchIO.Rand(), int64(st.Candidates-st.Screened-st.SizePruned); got != want {
		t.Fatalf("%s: %d random fetches, want candidates %d - screened %d - size-pruned %d = %d",
			label, got, st.Candidates, st.Screened, st.SizePruned, want)
	}
}

// TestSizeBoundBoundaryCases runs the size bound's edge cases through the
// probe and scan arms: a stored superset whose size ratio equals s1
// exactly must still verify, two empty sets (Jaccard 1) must match, and
// s1 = 0 must prune nothing — for an empty query too. Every answer must
// equal the unbounded brute-force verification of the same candidates.
func TestSizeBoundBoundaryCases(t *testing.T) {
	sets, err := workload.Generate(workload.Set1Params(200))
	if err != nil {
		t.Fatal(err)
	}
	// Element ids far above the workload's, so the edge sets overlap
	// nothing else.
	const base = uint64(1) << 40
	four := set.New(base, base+1, base+2, base+3)
	five := set.New(base, base+1, base+2, base+3, base+4)
	supersetSID, emptySID := len(sets), len(sets)+1
	sets = append(sets, five, set.New())
	// One cut at 0.5, so a near-duplicate range encloses to [0.5, 1] and
	// its candidates are the SFI's at 0.5: sets at Jaccard 0.8 collide
	// there with near certainty.
	plan := optimize.Plan{
		Cuts:  []float64{0.5},
		Delta: 0.5,
		FIs: []optimize.FI{
			{Point: 0.5, Kind: filter.Dissimilar, Tables: 10},
			{Point: 0.5, Kind: filter.Similar, Tables: 10},
		},
		Budget: 20,
		K:      32,
	}
	ix, err := Build(sets, Options{Embed: minhash.Options{K: 32, Bits: 8, Seed: 3}, PlanOverride: &plan})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		q      set.Set
		lo, hi float64
		want   int // sid that must be a candidate and a match; -1 for none
	}{
		{"superset at ratio s1", four, 0.8, 1, supersetSID},
		{"empty vs empty", set.New(), 0.8, 1, emptySID},
		{"empty query at s1=0", set.New(), 0, 1, emptySID},
		{"s1=0", sets[0], 0, 0.5, -1},
	}
	for _, c := range cases {
		want := bruteForceVerify(t, ix, c.q, c.lo, c.hi)
		if c.want >= 0 && !slices.ContainsFunc(want, func(m Match) bool { return int(m.SID) == c.want }) {
			t.Fatalf("%s: sid %d is not a verified candidate; the case tests nothing", c.name, c.want)
		}
		for _, arm := range []Arm{ArmProbe, ArmScan} {
			for _, workers := range []int{1, 4} {
				label := fmt.Sprintf("%s arm=%d workers=%d", c.name, arm, workers)
				got, st, err := ix.QueryPresigned(c.q, nil, c.lo, c.hi, QueryOptions{Arm: arm, Workers: workers, MinParallelVerify: 1})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s: %d matches, brute force %d", label, len(got), len(want))
				}
				if c.lo == 0 && st.SizePruned != 0 {
					t.Fatalf("%s: s1 = 0 size-pruned %d candidates", label, st.SizePruned)
				}
				if arm == ArmProbe {
					requireFetchAccounting(t, label, st)
				}
			}
		}
	}
}

// TestSizePrunedAccounting checks that on a near-duplicate range the size
// bound skips fetches, that a size-pruned candidate is never also counted
// as screened, and that the probe arm fetches every other candidate not
// screened — serial and parallel, screening off and on.
func TestSizePrunedAccounting(t *testing.T) {
	ix, sets := buildSmall(t, 400, 40)
	for _, workers := range []int{1, 4} {
		for _, screen := range []bool{false, true} {
			pruned := 0
			for qi := 0; qi < 20; qi++ {
				q := sets[qi*19%len(sets)]
				label := fmt.Sprintf("workers=%d screen=%v query %d", workers, screen, qi)
				_, st, err := ix.QueryWithOptions(q, 0.8, 1, QueryOptions{Workers: workers, MinParallelVerify: 1, Screen: screen})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				requireFetchAccounting(t, label, st)
				pruned += st.SizePruned
			}
			if pruned == 0 {
				t.Fatalf("workers=%d screen=%v: the size bound pruned nothing over 20 near-duplicate queries", workers, screen)
			}
		}
	}
}

// TestInvalidScreenMarginRejected checks that a NaN, infinite or negative
// screening margin is an error on every arm, screening on or off, rather
// than silently screening nothing.
func TestInvalidScreenMarginRejected(t *testing.T) {
	ix, sets := buildSmall(t, 300, 40)
	for _, eps := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, -1e-9} {
		for _, arm := range []Arm{ArmProbe, ArmScan, ArmScreen} {
			for _, screen := range []bool{false, true} {
				opt := QueryOptions{Arm: arm, Screen: screen, ScreenMargin: eps}
				if _, _, err := ix.QueryPresigned(sets[0], nil, 0.5, 1, opt); err == nil {
					t.Fatalf("margin %g accepted with %+v", eps, opt)
				}
			}
		}
	}
	for _, eps := range []float64{0, 0.01, 1} {
		for _, arm := range []Arm{ArmProbe, ArmScan, ArmScreen} {
			if _, _, err := ix.QueryPresigned(sets[0], nil, 0.5, 1, QueryOptions{Arm: arm, Screen: true, ScreenMargin: eps}); err != nil {
				t.Fatalf("margin %g arm %d: %v", eps, arm, err)
			}
		}
	}
}
