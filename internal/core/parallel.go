// Deterministic parallelism for the build and query hot paths.
//
// The paper's preprocessing (Section 3 signing, Section 5 filter-index
// population) and its query processor (Section 4.3 filter → fetch → verify)
// are embarrassingly parallel. This file fans both across bounded worker
// pools while keeping every observable bit identical to the serial code:
//
//   - Signing writes are index-addressed (worker i writes only sigs[i]),
//     so chunk scheduling cannot reorder anything.
//   - Distribution sampling pre-draws its pair sequence from the seeded rng
//     before fan-out (see simdist.SampleSignaturePairsN).
//   - Each hash table owns its entries and is filled by exactly one
//     goroutine in ascending sid order, so its bucket chains and page count
//     are a pure function of (plan, seed, signatures) — exactly what
//     snapshot rebuilds require.
//   - Parallel verification sums per-worker counters after the workers
//     join, so FetchIO and skip accounting stays exact, and the final sort
//     is a total order, so result slices are identical.
package core

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/filter"
	"repro/internal/minhash"
	"repro/internal/set"
	"repro/internal/storage"
)

// defaultMinParallelVerify is the candidate count below which per-query
// verification stays serial: under ~50 simulated fetches the goroutine
// hand-off costs more than it saves.
const defaultMinParallelVerify = 48

// Arm is the access path of the range processor. Every arm computes the
// same Section 4.3 candidate set; they differ in how they find it and in
// what they answer from it.
type Arm uint8

const (
	// ArmProbe is the paper's pipeline: probe the filter indices' bucket
	// pages, then fetch and verify each candidate with a random read.
	ArmProbe Arm = iota
	// ArmScan finds the candidates by one sequential pass over the heap,
	// recomputing each live entry's candidacy from its stored signature,
	// and verifies them in place. Its answer is byte-identical to
	// ArmProbe's; its I/O is seq(heap pages) and nothing else.
	ArmScan
	// ArmScreen probes like ArmProbe but answers from the candidates'
	// signature estimates alone, fetching no data page. Approximate: the
	// engine dispatches it only under AllowApproximate; core does not gate.
	ArmScreen
)

// QueryOptions tunes the query processor beyond the basic range. The zero
// value is the paper's processor: the probe arm, no screening, GOMAXPROCS
// verification workers above the default candidate threshold.
type QueryOptions struct {
	// Arm selects the access path (zero value: ArmProbe). The engine sets
	// it per shard from the planner's decision.
	Arm Arm
	// Screen enables signature screening: before paying a random-access
	// fetch, a candidate's similarity is estimated from the stored
	// signatures (minhash.Estimate, no I/O) and the fetch is skipped when
	// the estimate falls outside [s1−ε, s2+ε]. Skipped candidates are
	// counted in QueryStats.Screened. Screening trades a small recall loss (true
	// matches whose estimate errs by more than ε) for one random page read
	// per screened candidate; all returned matches remain exact.
	Screen bool
	// ScreenMargin is ε on the Jaccard scale. 0 selects the estimate's
	// 95%-confidence half-width (minhash.Eps95, the bound
	// EstimateSimilarity reports), which keeps the extra false-negative
	// rate under 5% per candidate. A negative, NaN or infinite margin is
	// an error on every arm, screening on or off.
	ScreenMargin float64
	// Workers bounds per-query candidate verification. 0 selects
	// runtime.GOMAXPROCS(0); 1 forces serial processing. The fan-out never
	// exceeds the candidate count.
	Workers int
	// MinParallelVerify is the candidate count at or above which
	// verification fans across workers (0 selects a built-in default).
	MinParallelVerify int
	// AllowApproximate permits the engine's planner to answer from
	// signature estimates alone (the screen-only plan) when the query
	// range is wide relative to the estimator's confidence width. Core
	// itself ignores the flag: it gates which arm the engine dispatches,
	// not how any arm behaves.
	AllowApproximate bool
}

// ResolveWorkers maps an Options/QueryOptions worker count to a concrete
// pool size: n if positive, else runtime.GOMAXPROCS(0).
func ResolveWorkers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// SplitPool divides a worker pool of size pool across n consumers
// proportionally: every consumer gets at least one worker, the remainder
// pool%n is spread over the first consumers, and the shares sum to
// max(pool, n) — so nesting a per-consumer pool inside the split never
// oversubscribes the machine by more than the unavoidable one-per-consumer
// floor. The public batch uses it to hand each batch worker its query
// budget; the engine uses it to hand each shard its scatter budget.
func SplitPool(pool, n int) []int {
	if n <= 0 {
		return nil
	}
	if pool < n {
		pool = n
	}
	shares := make([]int, n)
	base, rem := pool/n, pool%n
	for i := range shares {
		shares[i] = base
		if i < rem {
			shares[i]++
		}
	}
	return shares
}

// parallelFor invokes fn over [0, n) in contiguous chunks of the given
// size, fanned across up to workers goroutines (workers <= 1 runs inline).
// fn must only write state addressed by its own index range.
func parallelFor(n, workers, chunk int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	if chunk < 1 {
		chunk = 1
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(int64(chunk))) - chunk
				if lo >= n {
					return
				}
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				fn(lo, hi)
			}
		}()
	}
	wg.Wait()
}

// signChunk is the work-stealing granularity of the signing pool: large
// enough to amortize the cursor bump, small enough to balance skewed set
// sizes.
const signChunk = 64

// signCollection computes every set's min-hash signature across a worker
// pool. Writes are index-addressed, so the result is bit-identical to the
// serial loop for every worker count. Each chunk's signatures share one
// flat coordinate block (a single allocation per chunk instead of one per
// set).
func signCollection(perms *minhash.Perms, sets []set.Set, workers int) []minhash.Signature {
	sigs := make([]minhash.Signature, len(sets))
	k := perms.K()
	parallelFor(len(sets), workers, signChunk, func(lo, hi int) {
		buf := make([]uint64, (hi-lo)*k)
		for i := lo; i < hi; i++ {
			sig := minhash.Signature(buf[(i-lo)*k : (i-lo+1)*k : (i-lo+1)*k])
			perms.SignInto(sets[i], sig)
			sigs[i] = sig
		}
	})
	return sigs
}

// populateFilters loads every live entry into every table of every filter
// index; coords[sid] holds the signature coordinates its keys are gathered
// from (nil at tombstones). The tables are dealt round-robin to up to
// workers goroutines, each computing one table's keys at a time into its
// own buffer and loading them in ascending sid order: every table sees the
// serial build's insertion sequence, so its bucket chains and page count
// are identical for every worker count, and tables own their entries, so
// workers share no mutable state.
func populateFilters(coords []minhash.Signature, fis []*filter.Index, workers int) {
	type table struct {
		f *filter.Index
		i int
	}
	var tables []table
	for _, f := range fis {
		for i := 0; i < f.Tables(); i++ {
			tables = append(tables, table{f, i})
		}
	}
	var sids []storage.SID
	for sid, c := range coords {
		if c != nil {
			sids = append(sids, storage.SID(sid))
		}
	}
	workers = max(1, min(workers, len(tables)))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			keys := make([]uint64, len(sids))
			for j := w; j < len(tables); j += workers {
				t := tables[j]
				for k, sid := range sids {
					keys[k] = t.f.Key(t.i, coords[sid], 0)
				}
				t.f.Table(t.i).Load(sids, keys)
			}
		}(w)
	}
	wg.Wait()
}

// queryScratch holds the reusable per-query buffers pooled on the index:
// the query signature, the sid bitsets of the Section 4.3 terms PosA,
// NegA, PosB, NegB, the candidate sids and the query's element bitmap.
// Steady-state queries allocate only their results.
type queryScratch struct {
	sig   minhash.Signature
	terms [4][]uint64
	cands []storage.SID
	qbits set.Bitmap
}

// verifyPass is one query's verification constants, read by every verify
// worker; sig is read only when screening.
type verifyPass struct {
	qbits              *set.Bitmap
	sig                minhash.Signature
	s1, s2             float64
	nlo, nhi           int
	screen             bool
	screenLo, screenHi float64
}

// sizeWindow returns the sizes [lo, hi] outside which a set cannot verify
// against a query of qn elements at s1: float64(min(qn, n))/float64(max(qn,
// n)) < s1 bounds its Jaccard below s1 too. The ratio rises with n up to
// qn and falls after it, so binary searches of it find both ends exactly.
func sizeWindow(qn int, s1 float64) (lo, hi int) {
	fits := func(n int) bool {
		return max(qn, n) == 0 || float64(min(qn, n))/float64(max(qn, n)) >= s1
	}
	lo = sort.Search(qn, fits)
	hi = qn + sort.Search(math.MaxInt-qn, func(i int) bool { return !fits(qn + i + 1) })
	return lo, hi
}

// verifyChunk runs the verify loop over one candidate slice, appending
// matches to dst and charging fetches and skips to st.
//
// A candidate whose size lies outside the query's size window is skipped
// before it is screened or fetched. |s| is read from the store's in-memory
// sid directory at no I/O, and an out-of-range sid has no size and falls
// through to Fetch's error. A fetched candidate's similarity is counted
// against the query bitmap, bit-identical to Set.Jaccard's.
func (ix *Index) verifyChunk(v *verifyPass, cands []storage.SID, dst []Match, st *QueryStats) ([]Match, error) {
	for _, sid := range cands {
		if n, ok := ix.store.SetLen(sid); ok && (n < v.nlo || n > v.nhi) {
			st.SizePruned++
			continue
		}
		if v.screen {
			est, err := minhash.Estimate(v.sig, ix.sigs[sid])
			if err != nil {
				return dst, fmt.Errorf("core: screening candidate %d: %w", sid, err)
			}
			if est < v.screenLo || est > v.screenHi {
				st.Screened++
				continue
			}
		}
		s, err := ix.store.Fetch(sid, &st.FetchIO)
		if err != nil {
			return dst, fmt.Errorf("core: fetching candidate %d: %w", sid, err)
		}
		sim := v.qbits.Jaccard(s)
		if sim >= v.s1 && sim <= v.s2 {
			dst = append(dst, Match{SID: sid, Similarity: sim})
		}
	}
	return dst, nil
}

// verifyCandidates fetches and verifies the candidate set, in parallel
// above the candidate-count threshold. Each worker counts into its own
// QueryStats, summed into stats after the workers join, so the totals
// equal the serial accounting exactly.
func (ix *Index) verifyCandidates(q set.Set, qbits *set.Bitmap, sig minhash.Signature, cands []storage.SID, s1, s2 float64, opt QueryOptions, stats *QueryStats) ([]Match, error) {
	v := verifyPass{qbits: qbits, sig: sig, s1: s1, s2: s2, screen: opt.Screen}
	v.nlo, v.nhi = sizeWindow(q.Len(), s1)
	if opt.Screen {
		eps := opt.ScreenMargin
		if eps == 0 {
			eps = ix.eps
		}
		v.screenLo, v.screenHi = s1-eps, s2+eps
	}
	qbits.Load(q)
	defer qbits.Reset()
	minPar := opt.MinParallelVerify
	if minPar <= 0 {
		minPar = defaultMinParallelVerify
	}
	workers := min(ResolveWorkers(opt.Workers), len(cands))
	if workers <= 1 || len(cands) < minPar {
		matches := make([]Match, 0, len(cands)/4+1)
		return ix.verifyChunk(&v, cands, matches, stats)
	}

	var (
		wg           sync.WaitGroup
		chunkStats   = make([]QueryStats, workers)
		chunkMatches = make([][]Match, workers)
		chunkErrs    = make([]error, workers)
	)
	for w := 0; w < workers; w++ {
		lo := w * len(cands) / workers
		hi := (w + 1) * len(cands) / workers
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			var st QueryStats // local, so workers share no cache line while counting
			chunkMatches[w], chunkErrs[w] = ix.verifyChunk(&v, cands[lo:hi], nil, &st)
			chunkStats[w] = st
		}(w, lo, hi)
	}
	wg.Wait()
	for w := range chunkStats {
		stats.Add(&chunkStats[w])
	}
	total := 0
	for _, m := range chunkMatches {
		total += len(m)
	}
	matches := make([]Match, 0, total)
	for w := 0; w < workers; w++ {
		if chunkErrs[w] != nil {
			return nil, chunkErrs[w]
		}
		matches = append(matches, chunkMatches[w]...)
	}
	return matches, nil
}
