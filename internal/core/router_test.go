package core

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/set"
	"repro/internal/storage"
)

func TestEstimateAnswerSizeTracksTruth(t *testing.T) {
	ix, sets := buildSmall(t, 600, 60)
	for _, r := range [][2]float64{{0, 0.1}, {0.1, 0.3}, {0.5, 1}} {
		est, err := ix.EstimateAnswerSize(r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		// True average answer size over a sample of queries.
		trueAvg := 0.0
		const probes = 40
		for q := 0; q < probes; q++ {
			cnt := 0
			for _, s := range sets {
				sim := sets[q*7%len(sets)].Jaccard(s)
				if sim >= r[0] && sim <= r[1] {
					cnt++
				}
			}
			trueAvg += float64(cnt)
		}
		trueAvg /= probes
		// The estimate is distribution-based; demand the right order of
		// magnitude (factor 3 + small absolute slack).
		if est > 3*trueAvg+20 || trueAvg > 3*est+20 {
			t.Errorf("range %v: estimate %.1f vs measured %.1f", r, est, trueAvg)
		}
	}
}

func TestEstimateCandidatesAtLeastAnswer(t *testing.T) {
	ix, _ := buildSmall(t, 500, 60)
	for _, r := range [][2]float64{{0.05, 0.2}, {0.3, 0.6}, {0.8, 1}} {
		ans, err := ix.EstimateAnswerSize(r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		cand, err := ix.EstimateCandidates(r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		// Candidates include the captured part of the answer plus extras;
		// they cannot dramatically undercut the capture-weighted answer.
		if cand < 0 {
			t.Fatalf("range %v: negative candidate estimate %g", r, cand)
		}
		if cand > float64(ix.Len())*1.01 {
			t.Errorf("range %v: candidate estimate %g above collection size", r, cand)
		}
		_ = ans
	}
}

func TestRouteQueryPicksCheaper(t *testing.T) {
	ix, _ := buildSmall(t, 600, 60)
	m := storage.DefaultCostModel()
	// A full-range query has a huge answer: scan must win.
	rp, err := ix.RouteQuery(0, 1, m)
	if err != nil {
		t.Fatal(err)
	}
	if rp.IndexCost <= 0 || rp.ScanCost <= 0 {
		t.Fatalf("degenerate costs: %+v", rp)
	}
	if rp.Route != RouteScan {
		t.Errorf("full-range query routed to %v (index %v vs scan %v)", rp.Route, rp.IndexCost, rp.ScanCost)
	}
	if RouteIndex.String() != "index" || RouteScan.String() != "scan" {
		t.Error("route strings wrong")
	}
}

func TestQueryAutoAgreesWithExplicitPaths(t *testing.T) {
	ix, sets := buildSmall(t, 400, 50)
	m := storage.DefaultCostModel()
	for _, r := range [][2]float64{{0.9, 1}, {0, 1}} {
		matches, route, stats, err := ix.QueryAuto(sets[0], r[0], r[1], m)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Results != len(matches) {
			t.Errorf("route %v: stats.Results %d vs %d matches", route, stats.Results, len(matches))
		}
		for _, mt := range matches {
			sim := sets[0].Jaccard(sets[mt.SID])
			if math.Abs(sim-mt.Similarity) > 1e-12 || sim < r[0] || sim > r[1] {
				t.Errorf("route %v: bad match %+v (true %g)", route, mt, sim)
			}
		}
		// The explicit scan path is exact, ordered like every other path
		// (descending similarity, ties by ascending sid), examines every
		// set, and reads the heap once, sequentially.
		scanned, sstats, err := ix.ScanQuery(sets[0], r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		if truth := exactAnswer(sets, sets[0], r[0], r[1]); len(scanned) != len(truth) {
			t.Errorf("range %v: scan returned %d of %d", r, len(scanned), len(truth))
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
		if route == RouteScan && !reflect.DeepEqual(matches, scanned) {
			t.Errorf("range %v: QueryAuto's scan route differs from ScanQuery", r)
		}
	}
	// A query no set resembles: the scan returns nothing, not an error.
	none, _, err := ix.ScanQuery(set.New(1<<30, 1<<30+1), 0.5, 1)
	if err != nil || len(none) != 0 {
		t.Errorf("disjoint query: %d matches, err %v", len(none), err)
	}
}

func TestTouchedTablesPositive(t *testing.T) {
	ix, _ := buildSmall(t, 300, 40)
	for _, r := range [][2]float64{{0, 0.05}, {0.5, 0.8}, {0.9, 1}, {0, 1}} {
		if got := ix.touchedTables(r[0], r[1]); got <= 0 {
			t.Errorf("range %v: touchedTables = %d", r, got)
		}
	}
}
