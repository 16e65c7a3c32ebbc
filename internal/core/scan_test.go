package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/embed"
	"repro/internal/minhash"
	"repro/internal/optimize"
	"repro/internal/set"
	"repro/internal/storage"
	"repro/internal/workload"
)

// scanRanges covers every case of the Section 4.3 range combination: a
// pure-DFI high band, an interior band, half-open ranges, and the full
// interval.
var scanRanges = [][2]float64{
	{0.9, 1.0},
	{0.75, 0.85},
	{0.5, 1.0},
	{0.1, 0.9},
	{0.0, 1.0},
}

// TestScanMatchesQueryPresigned pins the scan arm's exactness contract:
// for every range and query, it returns the same candidates and
// byte-identical matches as the probe arm, with screening on and off and
// with serial and chunked verification, with deleted entries in the heap.
// This is the foundation the planner's byte-identity guarantee rests on.
func TestScanMatchesQueryPresigned(t *testing.T) {
	sets, err := workload.Generate(workload.Set1Params(300))
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(sets, Options{
		Embed:    embed.Options{K: 64, Bits: 8, Seed: 42},
		Plan:     optimize.Options{Budget: 60, RecallTarget: 0.9},
		DistSeed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, sid := range []storage.SID{5, 150} {
		if err := ix.Delete(sid); err != nil {
			t.Fatal(err)
		}
	}
	requireScanMatchesProbe(t, ix, sets)
}

func requireScanMatchesProbe(t *testing.T, ix *Index, sets []set.Set) {
	t.Helper()
	for _, screen := range []bool{false, true} {
		for _, workers := range []int{1, 4} {
			for _, minPar := range []int{0, 1} {
				opt := QueryOptions{Screen: screen, Workers: workers, MinParallelVerify: minPar}
				for _, r := range scanRanges {
					for _, qi := range []int{0, len(sets) / 3, len(sets) - 1} {
						label := fmt.Sprintf("opt=%+v range=%v sid=%d", opt, r, qi)
						want, wantStats, err := ix.QueryPresigned(sets[qi], nil, r[0], r[1], opt)
						if err != nil {
							t.Fatalf("probe %s: %v", label, err)
						}
						scan := opt
						scan.Arm = ArmScan
						got, gotStats, err := ix.QueryPresigned(sets[qi], nil, r[0], r[1], scan)
						if err != nil {
							t.Fatalf("scan %s: %v", label, err)
						}
						requireSameRangeAnswer(t, label, got, gotStats, want, wantStats)
					}
				}
			}
		}
	}
}

// requireSameRangeAnswer fails unless two answers to one range query agree
// bit for bit in matches, candidates, screened counts and enclosure.
func requireSameRangeAnswer(t testing.TB, label string, got []Match, gotStats QueryStats, want []Match, wantStats QueryStats) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: scan %d matches, probe %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].SID != want[i].SID ||
			math.Float64bits(got[i].Similarity) != math.Float64bits(want[i].Similarity) {
			t.Fatalf("%s match %d: scan %+v, probe %+v", label, i, got[i], want[i])
		}
	}
	if gotStats.Candidates != wantStats.Candidates || gotStats.Screened != wantStats.Screened {
		t.Fatalf("%s: scan saw %d candidates (%d screened), probe %d (%d)",
			label, gotStats.Candidates, gotStats.Screened, wantStats.Candidates, wantStats.Screened)
	}
	if gotStats.EnclosedLo != wantStats.EnclosedLo || gotStats.EnclosedHi != wantStats.EnclosedHi {
		t.Fatalf("%s: enclosures differ: [%g,%g] vs [%g,%g]", label,
			gotStats.EnclosedLo, gotStats.EnclosedHi, wantStats.EnclosedLo, wantStats.EnclosedHi)
	}
}

// TestScanChargesSequentialIO pins the cost-model shape the planner
// prices: the scan arm reads the heap sequentially and performs no random
// candidate fetches, whether it verifies serially or in chunks.
func TestScanChargesSequentialIO(t *testing.T) {
	ix, sets := buildWorkers(t, 300, 60, 0, 42)
	for _, workers := range []int{1, 4} {
		opt := QueryOptions{Arm: ArmScan, Workers: workers, MinParallelVerify: 1}
		_, st, err := ix.QueryPresigned(sets[0], nil, 0.5, 1.0, opt)
		if err != nil {
			t.Fatal(err)
		}
		if st.FetchIO.Rand() != 0 {
			t.Fatalf("workers=%d: scan performed %d random reads; want 0", workers, st.FetchIO.Rand())
		}
		if st.FetchIO.Seq() != ix.Store().NumPages() {
			t.Fatalf("workers=%d: scan charged %d sequential reads; the heap has %d pages",
				workers, st.FetchIO.Seq(), ix.Store().NumPages())
		}
	}
}

// TestScreenPresigned pins the screen arm: same candidate set as the
// probe arm, zero data fetches, and every reported match is a signature
// estimate inside the requested range.
func TestScreenPresigned(t *testing.T) {
	ix, sets := buildWorkers(t, 300, 60, 0, 42)
	for _, r := range scanRanges {
		for _, qi := range []int{0, len(sets) / 2} {
			_, probeStats, err := ix.QueryPresigned(sets[qi], nil, r[0], r[1], QueryOptions{})
			if err != nil {
				t.Fatalf("probe range=%v sid=%d: %v", r, qi, err)
			}
			got, st, err := ix.QueryPresigned(sets[qi], nil, r[0], r[1], QueryOptions{Arm: ArmScreen})
			if err != nil {
				t.Fatalf("screen range=%v sid=%d: %v", r, qi, err)
			}
			if st.Candidates != probeStats.Candidates {
				t.Fatalf("range=%v sid=%d: screen saw %d candidates, probe %d",
					r, qi, st.Candidates, probeStats.Candidates)
			}
			if st.FetchIO.Rand() != 0 || st.FetchIO.Seq() != 0 {
				t.Fatalf("range=%v sid=%d: screen-only fetched data pages (%d rand, %d seq)",
					r, qi, st.FetchIO.Rand(), st.FetchIO.Seq())
			}
			if st.Results != len(got) || st.Screened != st.Candidates-len(got) {
				t.Fatalf("range=%v sid=%d: accounting results=%d screened=%d for %d/%d",
					r, qi, st.Results, st.Screened, len(got), st.Candidates)
			}
			for _, m := range got {
				if m.Similarity < r[0] || m.Similarity > r[1] {
					t.Fatalf("range=%v sid=%d: estimate %g outside range", r, qi, m.Similarity)
				}
			}
		}
	}
}

// invalidRanges are similarity ranges every entry must reject: inverted,
// outside [0, 1], infinite, or NaN at either end.
var invalidRanges = [][2]float64{
	{0.9, 0.5},
	{-0.5, 0.3},
	{0.5, 1.5},
	{math.Inf(-1), 0.5},
	{0.5, math.Inf(1)},
	{math.NaN(), 0.5},
	{0.5, math.NaN()},
	{math.NaN(), math.NaN()},
}

// TestScanInvalidRange pins one range check for every arm and for the
// filter stage alone.
func TestScanInvalidRange(t *testing.T) {
	ix, sets := buildWorkers(t, 50, 60, 0, 42)
	for _, r := range invalidRanges {
		for _, arm := range []Arm{ArmProbe, ArmScan, ArmScreen} {
			if _, _, err := ix.QueryPresigned(sets[0], nil, r[0], r[1], QueryOptions{Arm: arm}); err == nil {
				t.Errorf("range %v accepted by arm %d", r, arm)
			}
		}
		if _, err := ix.Candidates(sets[0], r[0], r[1], &QueryStats{}); err == nil {
			t.Errorf("range %v accepted by Candidates", r)
		}
	}
}

// TestChernoffEps95 sanity-checks the estimate's confidence width:
// positive and shrinking with k.
func TestChernoffEps95(t *testing.T) {
	e64, e256 := minhash.Eps95(64), minhash.Eps95(256)
	if e64 <= 0 || e256 <= 0 || e256 >= e64 {
		t.Fatalf("eps95(64)=%g eps95(256)=%g; want positive and decreasing", e64, e256)
	}
}

// TestScanQueryIsExactBaseline pins the Section 6 scan baseline: exact,
// ordered like every other path (descending similarity, ties by ascending
// sid), examining every set, and reading the heap once, sequentially.
func TestScanQueryIsExactBaseline(t *testing.T) {
	ix, sets := buildSmall(t, 400, 50)
	m := storage.DefaultCostModel()
	for _, r := range [][2]float64{{0.9, 1}, {0, 1}} {
		scanned, sstats, err := ix.ScanQuery(sets[0], r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		if truth := exactAnswer(sets, sets[0], r[0], r[1]); len(scanned) != len(truth) {
			t.Errorf("range %v: scan returned %d of %d", r, len(scanned), len(truth))
		}
		for _, mt := range scanned {
			if sim := sets[0].Jaccard(sets[mt.SID]); math.Abs(sim-mt.Similarity) > 1e-12 || sim < r[0] || sim > r[1] {
				t.Errorf("range %v: bad match %+v (true %g)", r, mt, sim)
			}
		}
		for i := 1; i < len(scanned); i++ {
			a, b := scanned[i-1], scanned[i]
			if a.Similarity < b.Similarity || (a.Similarity == b.Similarity && a.SID >= b.SID) {
				t.Errorf("range %v: scan order broken at %d: %+v then %+v", r, i, a, b)
				break
			}
		}
		if sstats.Candidates != len(sets) || sstats.Results != len(scanned) {
			t.Errorf("range %v: scan examined %d of %d sets, Results %d vs %d matches",
				r, sstats.Candidates, len(sets), sstats.Results, len(scanned))
		}
		if seq, rnd := sstats.FetchIO.Seq(), sstats.FetchIO.Rand(); seq != ix.Store().NumPages() || rnd != 0 {
			t.Errorf("range %v: scan read %d sequential + %d random pages, store has %d", r, seq, rnd, ix.Store().NumPages())
		}
		if sstats.SimIOTime(m) <= 0 {
			t.Errorf("range %v: scan has no simulated I/O time", r)
		}
	}
	// A query no set resembles: the scan returns nothing, not an error.
	none, _, err := ix.ScanQuery(set.New(1<<30, 1<<30+1), 0.5, 1)
	if err != nil || len(none) != 0 {
		t.Errorf("disjoint query: %d matches, err %v", len(none), err)
	}
}
