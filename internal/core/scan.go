// The range processor's scan and screen arms, the Section 6 scan
// baseline, and the estimates the cost-based planner prices the arms with.
//
// ScanQuery is the sequential-scan baseline of Section 6: every set is
// read and verified, with no filter at all. It is exact and is the
// comparator of Figure 7.
//
// The scan arm (ArmScan) is the direct-scan plan: one sequential pass over
// the shard heap, recomputing each live set's filter candidacy from its
// stored signature instead of probing bucket pages. Candidacy uses the
// exact insert-key = probe-key test the hash tables implement (a stored
// entry collides with the probe in table i iff its insert key equals probe
// key i), evaluated over the full Section 4.3 case combination including
// the negative sides — so the candidate set, and therefore the verified
// answer, is byte-identical to the probe arm's. What changes is only the
// access path: seq(heap pages) instead of rand(tables + candidates).
//
// The screen arm (ArmScreen) is the screen-only plan: the normal filter
// probe, but candidates are answered from their signature estimates
// without fetching a single data page. Approximate by construction —
// similarities are estimates and boundary sets can be misplaced.
package core

import (
	"fmt"
	"time"

	"repro/internal/minhash"
	"repro/internal/optimize"
	"repro/internal/set"
	"repro/internal/simdist"
	"repro/internal/storage"
)

// scanProbe is the precomputed candidacy test of one Section 4.3 range:
// the plan's combination, with the query's per-table probe keys derived
// once. candidate = (∈PosA ∧ ∉NegA) ∨ (∈PosB ∧ ∉NegB).
type scanProbe struct {
	optimize.Combination
	keys [4][]uint64 // probe keys of PosA, NegA, PosB, NegB (nil if absent)
}

// buildScanProbe derives the probe keys of the combination the filter
// probe would run, so candidacy matches candidatesFromSignature exactly.
func (ix *Index) buildScanProbe(sig minhash.Signature, s1, s2 float64, stats *QueryStats) (scanProbe, error) {
	c, err := ix.combination(s1, s2, stats)
	if err != nil {
		return scanProbe{}, err
	}
	p := scanProbe{Combination: c}
	for slot, ord := range []int{c.PosA, c.NegA, c.PosB, c.NegB} {
		if ord >= 0 {
			p.keys[slot] = ix.fis[ord].AppendProbeKeys(sig, nil)
		}
	}
	return p, nil
}

// candidate evaluates the combination for one stored entry, given the
// coordinates its keys are gathered from. Membership in an FI is the
// collision test its hash tables perform — some table's insert key equals
// the query's probe key — decided table by table without touching bucket
// pages and stopping at the first hit.
func (p *scanProbe) candidate(ix *Index, coords []uint64) bool {
	member := func(slot, ord int) bool { return ix.fis[ord].Collides(coords, p.keys[slot]) }
	if p.PosA >= 0 && member(0, p.PosA) && !(p.NegA >= 0 && member(1, p.NegA)) {
		return true
	}
	return p.PosB >= 0 && member(2, p.PosB) && !(p.NegB >= 0 && member(3, p.NegB))
}

// ScanQuery answers (q, [s1, s2]) exactly by the sequential-scan baseline
// of Section 6: read the whole collection, evaluate every set's similarity
// with the query, keep those inside the range. It is the comparator of
// Figure 7.
func (ix *Index) ScanQuery(q set.Set, s1, s2 float64) ([]Match, QueryStats, error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	var stats QueryStats
	start := time.Now()
	var matches []Match
	ix.store.Scan(&stats.FetchIO, func(sid storage.SID, s set.Set) bool {
		stats.Candidates++
		sim := q.Jaccard(s)
		if sim >= s1 && sim <= s2 {
			matches = append(matches, Match{SID: sid, Similarity: sim})
		}
		return true
	})
	sortMatches(matches)
	stats.Results = len(matches)
	stats.CPU = time.Since(start)
	return matches, stats, nil
}

// scanCandidates is the scan arm's filter stage: one pass over the stored
// signatures, testing every live entry with the tables' collision test.
// It writes the candidates candidatesFromSignature would produce, in the
// same ascending order, to sc.cands and returns them (aliasing sc).
func (ix *Index) scanCandidates(sig minhash.Signature, s1, s2 float64, stats *QueryStats, sc *queryScratch) ([]storage.SID, error) {
	probe, err := ix.buildScanProbe(sig, s1, s2, stats)
	if err != nil {
		return nil, err
	}
	sc.cands = sc.cands[:0]
	for i, stored := range ix.sigs {
		if stored != nil && probe.candidate(ix, stored) {
			sc.cands = append(sc.cands, storage.SID(i))
		}
	}
	stats.Candidates = len(sc.cands)
	return sc.cands, nil
}

// screenCandidates is the screen arm's answer: every candidate whose
// estimated similarity falls in [s1, s2] is returned with that estimate
// as its similarity, and the rest count as Screened. No data page is
// fetched.
func (ix *Index) screenCandidates(sig minhash.Signature, cands []storage.SID, s1, s2 float64, stats *QueryStats) ([]Match, error) {
	matches := make([]Match, 0, len(cands)/4+1)
	for _, sid := range cands {
		est, err := minhash.Estimate(sig, ix.sigs[sid])
		if err != nil {
			return nil, fmt.Errorf("core: screening candidate %d: %w", sid, err)
		}
		if est >= s1 && est <= s2 {
			matches = append(matches, Match{SID: sid, Similarity: est})
		} else {
			stats.Screened++
		}
	}
	return matches, nil
}

// CaptureFraction returns the Lemma 1 capture estimate for the range
// [lo, hi] as a fraction of the collection: the modeled capture integral
// of the enclosing filter combination over hist, normalized by hist's
// total mass. A nil hist falls back to the build-time distribution; ok is
// false when no usable distribution exists. Reads only state immutable
// after Build (plan, cuts) plus the caller's histogram, so no lock is
// taken — the engine calls it with the tuner's live sketch.
func (ix *Index) CaptureFraction(hist *simdist.Histogram, lo, hi float64) (float64, bool) {
	if hist == nil {
		hist = ix.hist
	}
	if hist == nil || hist.Total() == 0 {
		return 0, false
	}
	captured := hist.Integrate(0, 1, ix.plan.CaptureAt(ix.plan.Enclose(lo, hi)))
	return captured / hist.Total(), true
}

// ProbeTables returns the number of hash tables a query with the given
// range probes under the Section 4.3 combination (each probe is one
// random bucket-page read in the cost model), or 0 when the plan has no
// combination for it. Plan state is immutable after Build, so no lock is
// taken.
func (ix *Index) ProbeTables(lo, hi float64) int {
	c, ok := ix.plan.Combination(ix.plan.Enclose(lo, hi))
	if !ok {
		return 0
	}
	total := 0
	for _, ord := range []int{c.PosA, c.NegA, c.PosB, c.NegB} {
		if ord >= 0 {
			total += ix.fis[ord].Tables()
		}
	}
	return total
}

// ScanCostInputs returns the shard's live set count, sequential heap page
// count, and average pages per set — the per-shard inputs of the planner's
// cost comparison.
func (ix *Index) ScanCostInputs() (live int, scanPages int64, pagesPerSet float64) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.store.Live(), ix.store.NumPages(), ix.store.AvgPagesPerSet()
}
