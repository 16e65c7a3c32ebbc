package core

import (
	"fmt"
	"time"

	"repro/internal/set"
	"repro/internal/storage"
)

// EstimateAnswerSize predicts the expected number of sets a random query
// with range [lo, hi] returns, from the similarity distribution the index
// was tuned to: E_a(σ1, σ2) = (2/|S|)·∫ D_S (the Section 5 identity). It
// returns an error if the index was built with a plan override and no
// distribution.
func (ix *Index) EstimateAnswerSize(lo, hi float64) (float64, error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if ix.hist == nil {
		return 0, fmt.Errorf("core: index has no similarity distribution (built with a plan override)")
	}
	// n is the live count: tombstoned sids answer no query.
	n := float64(ix.n)
	if ix.hist.Total() == 0 || n == 0 {
		return 0, nil
	}
	pairsMass := ix.hist.Mass(lo, hi) / ix.hist.Total() * (n * (n - 1) / 2)
	return 2 * pairsMass / n, nil
}

// EstimateCandidates predicts the expected candidate count of a query with
// range [lo, hi]: the modeled capture integral of the enclosing filter
// combination over the whole distribution — answer, in-interval extras,
// and false positives together.
func (ix *Index) EstimateCandidates(lo, hi float64) (float64, error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.estimateCandidatesLocked(lo, hi)
}

func (ix *Index) estimateCandidatesLocked(lo, hi float64) (float64, error) {
	if ix.hist == nil {
		return 0, fmt.Errorf("core: index has no similarity distribution (built with a plan override)")
	}
	n := float64(ix.n)
	if ix.hist.Total() == 0 || n == 0 {
		return 0, nil
	}
	elo, ehi := ix.enclose(lo, hi)
	captured := ix.hist.Integrate(0, 1, func(s float64) float64 {
		return ix.plan.CaptureAt(elo, ehi, s)
	})
	return 2 * (captured / ix.hist.Total() * (n * (n - 1) / 2)) / n, nil
}

// Route says which access path RouteQuery predicts to be cheaper.
type Route int

const (
	// RouteIndex predicts the filter indices win.
	RouteIndex Route = iota
	// RouteScan predicts a sequential scan wins.
	RouteScan
)

// String renders the route.
func (r Route) String() string {
	if r == RouteScan {
		return "scan"
	}
	return "index"
}

// RoutePlan explains a routing decision.
type RoutePlan struct {
	// Route is the chosen access path.
	Route Route
	// PredictedCandidates is the modeled candidate count for the index
	// path.
	PredictedCandidates float64
	// IndexCost and ScanCost are the modeled I/O times under the cost
	// model.
	IndexCost, ScanCost time.Duration
}

// RouteQuery models both access paths for the range [lo, hi] under cost
// model m and picks the cheaper — the decision rule behind the paper's
// Section 6 analysis (index wins while the result size is below roughly
// |S|·a/rtn; above it, scan). Probe I/O (one bucket per allocated table of
// the touched filter indices) is included, which the paper's estimate
// ignores.
func (ix *Index) RouteQuery(lo, hi float64, m storage.CostModel) (RoutePlan, error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.routeQueryLocked(lo, hi, m)
}

func (ix *Index) routeQueryLocked(lo, hi float64, m storage.CostModel) (RoutePlan, error) {
	cand, err := ix.estimateCandidatesLocked(lo, hi)
	if err != nil {
		return RoutePlan{}, err
	}
	pagesPerSet := ix.store.AvgPagesPerSet()
	if pagesPerSet < 1 {
		pagesPerSet = 1
	}
	probes := int64(ix.touchedTables(lo, hi))
	// Each candidate costs one random seek plus sequential continuation
	// pages; each probe costs one random bucket-page read.
	randReads := int64(cand) + probes
	seqReads := int64(cand * (pagesPerSet - 1))
	rp := RoutePlan{
		PredictedCandidates: cand,
		IndexCost:           m.Time(seqReads, randReads),
		ScanCost:            m.Time(ix.store.NumPages(), 0),
	}
	if rp.IndexCost <= rp.ScanCost {
		rp.Route = RouteIndex
	} else {
		rp.Route = RouteScan
	}
	return rp, nil
}

// touchedTables counts the hash tables a query with the given range would
// probe: the l values of the filter indices its Section 4.3 combination
// consults.
func (ix *Index) touchedTables(lo, hi float64) int {
	elo, ehi := ix.enclose(lo, hi)
	total := 0
	if f, ok := ix.dfis[ehi]; ok {
		total += f.Tables()
		if g, ok := ix.dfis[elo]; ok && elo > 0 {
			total += g.Tables()
		}
		return total
	}
	if f, ok := ix.sfis[elo]; ok {
		total += f.Tables()
		if g, ok := ix.sfis[ehi]; ok && ehi < 1 {
			total += g.Tables()
		}
		return total
	}
	if dp, ok := ix.bothKindsPoint(); ok {
		total += ix.dfis[dp].Tables() + ix.sfis[dp].Tables()
		if g, ok := ix.dfis[elo]; ok && elo > 0 {
			total += g.Tables()
		}
		if g, ok := ix.sfis[ehi]; ok && ehi < 1 {
			total += g.Tables()
		}
	}
	return total
}

// QueryAuto runs the query on whichever access path RouteQuery predicts to
// be cheaper, returning the results, the route taken, and the stats of the
// path that ran. Scan-path stats map into QueryStats: the full sequential
// heap read appears as FetchIO and Candidates is the number of sets
// examined.
func (ix *Index) QueryAuto(q set.Set, lo, hi float64, m storage.CostModel) ([]Match, Route, QueryStats, error) {
	// One shared lock spans routing and execution, so a concurrent
	// Insert/Delete cannot slip between the cost decision and the query.
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	rp, err := ix.routeQueryLocked(lo, hi, m)
	if err != nil {
		return nil, RouteIndex, QueryStats{}, err
	}
	if rp.Route == RouteIndex {
		matches, stats, err := ix.queryLocked(q, lo, hi, QueryOptions{})
		return matches, RouteIndex, stats, err
	}
	matches, stats, err := ix.scanLocked(q, lo, hi)
	return matches, RouteScan, stats, err
}

// ScanQuery answers (q, [lo, hi]) exactly by the sequential-scan baseline
// of Section 6: read the whole collection, evaluate every set's similarity
// with the query, keep those inside the range. It is the comparator of
// Figure 7 and the path QueryAuto takes on RouteScan.
func (ix *Index) ScanQuery(q set.Set, lo, hi float64) ([]Match, QueryStats, error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.scanLocked(q, lo, hi)
}

func (ix *Index) scanLocked(q set.Set, lo, hi float64) ([]Match, QueryStats, error) {
	var stats QueryStats
	start := time.Now()
	var matches []Match
	err := ix.store.Scan(&stats.FetchIO, func(sid storage.SID, s set.Set) bool {
		stats.Candidates++
		sim := q.Jaccard(s)
		if sim >= lo && sim <= hi {
			matches = append(matches, Match{SID: sid, Similarity: sim})
		}
		return true
	})
	if err != nil {
		return nil, stats, err
	}
	sortMatches(matches)
	stats.Results = len(matches)
	stats.CPU = time.Since(start)
	return matches, stats, nil
}
