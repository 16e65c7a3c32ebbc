package core

import (
	"fmt"

	"repro/internal/filter"
	"repro/internal/hashtable"
	"repro/internal/minhash"
	"repro/internal/set"
)

// TopKPresigned returns the k sets most similar to q, best first. It is
// the nearest-neighbour application of the filter indices (Section 7
// relates the same machinery to Indyk's NN reductions): Similarity Filter
// Indices are probed from the highest partition point downward,
// candidates are verified exactly, and the walk stops as soon as k
// verified results sit at or above the next partition point — nothing
// below that point can improve the answer. Like range queries, the result
// is one-sided approximate: returned similarities are exact, but a true
// neighbour can be missed with the filter's false-negative probability at
// its level.
//
// Ties break by ascending sid. If the filters surface fewer than k sets
// even at the lowest partition point, fewer are returned; a scan fallback
// is deliberately not performed (use ScanQuery for exact answers). sig is
// q's signature as for QueryPresigned; nil signs q locally.
func (ix *Index) TopKPresigned(q set.Set, sig minhash.Signature, k int) ([]Match, QueryStats, error) {
	if k <= 0 {
		return nil, QueryStats{}, fmt.Errorf("core: k must be positive, got %d", k)
	}
	return ix.query(q, sig, func(sig minhash.Signature, sc *queryScratch, stats *QueryStats) ([]Match, error) {
		return ix.topK(q, sig, k, sc, stats)
	})
}

// topK is TopKPresigned's walk under the read lock.
func (ix *Index) topK(q set.Set, sig minhash.Signature, k int, sc *queryScratch, stats *QueryStats) ([]Match, error) {
	// SFIs by descending point (plan order is ascending); then the δ-point
	// DFI as the final, loosest stage (it captures the low-similarity
	// remainder).
	var sfis []int
	for i := len(ix.plan.FIs) - 1; i >= 0; i-- {
		if ix.plan.FIs[i].Kind == filter.Similar {
			sfis = append(sfis, i)
		}
	}

	// verify probes filter index ord and verifies, in ascending sid order,
	// the sids no earlier stage produced; seen marks every sid produced.
	seen := ix.clearedMarks(sc.terms[1])
	sc.terms[1] = seen
	sc.qbits.Load(q)
	defer sc.qbits.Reset()
	var results []Match
	verify := func(ord int) error {
		fresh := ix.fis[ord].Probe(sig, &stats.IndexIO, ix.clearedMarks(sc.terms[0]))
		sc.terms[0] = fresh
		for i := range fresh {
			fresh[i] &^= seen[i]
			seen[i] |= fresh[i]
		}
		sc.cands = hashtable.AppendMarked(sc.cands[:0], fresh)
		for _, sid := range sc.cands {
			stats.Candidates++
			s, err := ix.store.Fetch(sid, &stats.FetchIO)
			if err != nil {
				return fmt.Errorf("core: fetching candidate %d: %w", sid, err)
			}
			results = append(results, Match{SID: sid, Similarity: sc.qbits.Jaccard(s)})
		}
		return nil
	}
	done := func(floor float64) bool {
		if len(results) < k {
			return false
		}
		sortMatches(results)
		return results[k-1].Similarity >= floor
	}

	for i, ord := range sfis {
		if err := verify(ord); err != nil {
			return nil, err
		}
		floor := 0.0
		if i+1 < len(sfis) {
			floor = ix.plan.FIs[sfis[i+1]].Point
		}
		if done(floor) {
			break
		}
	}
	if len(results) < k {
		// Last resort below the lowest SFI: the δ-point DFI, which the
		// full range [0, 1] combines first, covers the dissimilar
		// remainder.
		if c, ok := ix.plan.Combination(0, 1); ok {
			if err := verify(c.PosA); err != nil {
				return nil, err
			}
		}
	}
	sortMatches(results)
	if len(results) > k {
		results = results[:k]
	}
	return results, nil
}
