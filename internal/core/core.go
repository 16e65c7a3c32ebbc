// Package core assembles the paper's complete indexing scheme: the
// embedding pipeline (Section 3), a battery of Similarity and Dissimilarity
// Filter Indices placed and budgeted by the optimizer (Section 5), the
// four-case range query processor (Section 4.3), and exact verification of
// candidates against the stored collection.
package core

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"repro/internal/filter"
	"repro/internal/hashtable"
	"repro/internal/minhash"
	"repro/internal/optimize"
	"repro/internal/set"
	"repro/internal/simdist"
	"repro/internal/storage"
)

// Options configures Build.
type Options struct {
	// Embed configures signing and the Hamming embedding. Zero value
	// selects minhash.DefaultOptions (k=100, b=8).
	Embed minhash.Options
	// Plan configures the Section 5 optimizer. Budget is required.
	Plan optimize.Options
	// PageSize is the simulated disk page size (0 = storage default).
	PageSize int
	// PayloadPerElem makes the store account I/O as if each element
	// carried that many extra bytes (its original string form); see
	// storage.NewSetStoreWithPayload. Zero accounts only the compact
	// encoding.
	PayloadPerElem int
	// DistBins is the similarity-histogram resolution (0 = default).
	DistBins int
	// DistSample is the number of pairs sampled to estimate D_S from
	// signatures (Lemma 1). 0 selects min(100·N, 200000). Negative values
	// request the exact O(N²) computation from the stored sets.
	DistSample int
	// DistSeed seeds distribution sampling and bit-position sampling.
	DistSeed int64
	// Distribution, if non-nil, is used directly instead of being
	// estimated (useful for tests and for reusing a known distribution).
	Distribution *simdist.Histogram
	// PlanOverride, if non-nil, is installed verbatim instead of running
	// the optimizer; the distribution is then neither estimated nor
	// consulted. Used by snapshot loading to reproduce an index exactly.
	PlanOverride *optimize.Plan
	// PrecomputedSignatures, if non-nil, must hold one signature per set
	// computed under exactly the Embed options given; min-hash signing (the
	// dominant build cost) is then skipped. Used by snapshot loading, retune
	// and the engine's sign-once partitioned build. Positions marked in
	// Tombstones must hold nil signatures.
	PrecomputedSignatures []minhash.Signature
	// Tombstones, if non-nil, marks positions of sets[i] whose sid was
	// allocated and later deleted: the placeholder is appended to the store
	// and immediately tombstoned, keeping every later sid at its original
	// value, but it enters no filter index. This is what lets the
	// durability layer replay logged operations that name original sids
	// against a reloaded snapshot. Requires PlanOverride and
	// PrecomputedSignatures.
	Tombstones []bool
	// Workers bounds build parallelism: min-hash signing, distribution
	// sampling, and filter-index population all fan across up to Workers
	// goroutines. 0 selects runtime.GOMAXPROCS(0); 1 forces the serial
	// build. Every value produces a bit-identical index (signing writes are
	// index-addressed, pair sampling is pre-drawn from the seeded rng, and
	// each hash table is filled by one goroutine in ascending sid order).
	Workers int
}

// Match is one query result: a set identifier and its exact similarity to
// the query set.
type Match struct {
	SID        storage.SID
	Similarity float64
}

// QueryStats reports what a query cost and what the filters produced.
type QueryStats struct {
	// Candidates is the number of distinct sids the filter combination
	// produced before verification.
	Candidates int
	// Results is the number of candidates that verified into the range.
	Results int
	// Screened is the number of candidates whose page fetch was skipped by
	// signature screening (QueryOptions.Screen); always 0 when screening is
	// off.
	Screened int
	// SizePruned is the number of candidates the probe and scan arms ruled
	// out by size alone — min(|q|,|s|)/max(|q|,|s|) below s1 bounds their
	// Jaccard under the range — before screening or fetching them. A
	// size-pruned candidate is never also counted as Screened.
	SizePruned int
	// IndexIO counts bucket-page reads performed by filter probes.
	IndexIO storage.Counter
	// FetchIO counts page reads performed fetching candidate sets.
	FetchIO storage.Counter
	// CPU is the measured processor time of the query (wall time of the
	// in-memory work; the simulated disk contributes no wall time).
	CPU time.Duration
	// EnclosedLo, EnclosedHi are the partition points used.
	EnclosedLo, EnclosedHi float64
}

// Add sums o's counters into st: candidates, results, screened and
// size-pruned counts, CPU time and both I/O counters. The enclosed
// partition points are left as they are.
func (st *QueryStats) Add(o *QueryStats) {
	st.Candidates += o.Candidates
	st.Results += o.Results
	st.Screened += o.Screened
	st.SizePruned += o.SizePruned
	st.CPU += o.CPU
	st.IndexIO.RecordSeq(o.IndexIO.Seq())
	st.IndexIO.RecordRand(o.IndexIO.Rand())
	st.FetchIO.RecordSeq(o.FetchIO.Seq())
	st.FetchIO.RecordRand(o.FetchIO.Rand())
}

// SimIOTime returns the simulated I/O time of the query under model m.
func (st *QueryStats) SimIOTime(m storage.CostModel) time.Duration {
	return m.Time(st.IndexIO.Seq()+st.FetchIO.Seq(), st.IndexIO.Rand()+st.FetchIO.Rand())
}

// Index is a built similar-set retrieval index. It is safe for concurrent
// use: queries, estimates, and snapshots take a shared (read) lock and run
// in parallel; Insert and Delete take the exclusive lock and serialize
// against everything. Public entry points acquire ix.mu at most once and
// never call another entry while holding it — a reentrant RLock deadlocks
// once a writer is queued.
type Index struct {
	// mu guards every field below that mutates after Build: sigs, n, the
	// store heap and its sid directory, and filter-index pages. plan, hist,
	// perms, and buildOpts are immutable after Build.
	mu    sync.RWMutex
	perms *minhash.Perms
	plan  optimize.Plan
	store *storage.SetStore
	hist  *simdist.Histogram
	// sigs holds each set's min-hash signature, indexed by sid (nil once
	// deleted). It is both what every similarity estimate compares and the
	// coordinates the set's filter keys are gathered from.
	sigs []minhash.Signature
	n    int
	// eps is the 95% half-width of minhash.Estimate at the embedding's k;
	// immutable after Build.
	eps float64
	// fis lists the filter indices in plan order: fis[i] realizes
	// plan.FIs[i], so an optimize.Combination's ordinals index it directly.
	// Immutable after Build.
	fis []*filter.Index
	// scratch pools per-query buffers (query signature, probe vectors,
	// merge outputs) so steady-state queries allocate only their results.
	scratch sync.Pool
	// buildOpts records how the index was built, for snapshots. The Embed
	// options stored are the resolved ones (defaults applied).
	buildOpts Options
}

// Build preprocesses the collection per Sections 3 and 5 and returns a
// ready index. The input slice is not retained. An empty collection is
// accepted only when the caller supplies the similarity distribution or a
// plan override — a shard of a partitioned engine can start empty and fill
// by Insert, but a standalone build has nothing to optimize against.
func Build(sets []set.Set, opt Options) (*Index, error) {
	opt, perms, err := prepare(sets, opt)
	if err != nil {
		return nil, err
	}
	code, err := filter.NewHadamard(opt.Embed.Bits)
	if err != nil {
		return nil, err
	}
	tombstoned := func(i int) bool { return opt.Tombstones != nil && opt.Tombstones[i] }
	live := len(sets)
	for _, dead := range opt.Tombstones {
		if dead {
			live--
		}
	}

	resolved := opt
	// Transient load instructions, not build parameters: the signatures
	// live on in ix.sigs, which Insert and Delete change.
	resolved.PrecomputedSignatures = nil
	resolved.Tombstones = nil
	workers := ResolveWorkers(opt.Workers)
	ix := &Index{
		buildOpts: resolved,
		perms:     perms,
		eps:       minhash.Eps95(perms.K()),
		store:     storage.NewSetStoreWithPayload(opt.PageSize, opt.PayloadPerElem),
		sigs:      opt.PrecomputedSignatures,
		hist:      opt.Distribution,
		plan:      *opt.PlanOverride,
		n:         live,
	}
	ix.scratch.New = func() any {
		return &queryScratch{sig: make(minhash.Signature, perms.K())}
	}

	// Persist the collection; sids are dense append order. Tombstoned
	// positions keep their sid allocated but are deleted on the spot.
	for i, s := range sets {
		sid := ix.store.Append(s)
		if tombstoned(i) {
			if err := ix.store.Delete(sid); err != nil {
				return nil, err
			}
		}
	}

	// Materialize the filter indices and load every signature. Each
	// hash table owns its entries and is filled by one goroutine in
	// ascending sid order, so tables fill concurrently with no shared
	// mutable state and bucket chains independent of scheduling.
	fidxs := make([]*filter.Index, len(ix.plan.FIs))
	for i, fi := range ix.plan.FIs {
		fidx, err := filter.New(opt.PageSize, filter.Options{
			Kind:            fi.Kind,
			Threshold:       filter.HammingFromJaccard(fi.Point),
			Code:            code,
			K:               perms.K(),
			Tables:          fi.Tables,
			Seed:            opt.DistSeed + int64(i)*7919 + 13,
			ExpectedEntries: len(sets),
		})
		if err != nil {
			return nil, err
		}
		fidxs[i] = fidx
	}
	ix.fis = fidxs
	populateFilters(ix.sigs, fidxs, workers)
	return ix, nil
}

// Prepare runs the collection-wide steps of Build — sign every set
// (Section 3), profile D_S and plan (Section 5) — and returns opt with each
// result installed as its override: Embed resolved, PrecomputedSignatures,
// Distribution (nil when a PlanOverride came without one) and PlanOverride.
// A step whose override opt already carries is skipped, so the optimizer
// runs at most once; building from the returned options, over the sets or
// any partition of them with their signatures, runs none of the steps
// again. The sharded engine and the re-tuner plan through it.
func Prepare(sets []set.Set, opt Options) (Options, error) {
	opt, _, err := prepare(sets, opt)
	return opt, err
}

// prepare is Prepare, also returning the permutations it resolved.
func prepare(sets []set.Set, opt Options) (Options, *minhash.Perms, error) {
	if len(sets) == 0 && opt.Distribution == nil && opt.PlanOverride == nil {
		return opt, nil, fmt.Errorf("core: empty collection")
	}
	if opt.Embed.K == 0 {
		opt.Embed = minhash.DefaultOptions()
	}
	if err := opt.Embed.Validate(); err != nil {
		return opt, nil, fmt.Errorf("core: %w", err)
	}
	perms, err := minhash.NewFamily(opt.Embed.K, opt.Embed.Seed)
	if err != nil {
		return opt, nil, err
	}

	if opt.Tombstones != nil {
		if len(opt.Tombstones) != len(sets) {
			return opt, nil, fmt.Errorf("core: %d tombstone marks for %d sets", len(opt.Tombstones), len(sets))
		}
		if opt.PlanOverride == nil || opt.PrecomputedSignatures == nil {
			return opt, nil, fmt.Errorf("core: Tombstones requires PlanOverride and precomputed signatures")
		}
	}
	// Validate supplied signatures before anything uses them: a
	// wrong-length signature must fail the build cleanly rather than panic
	// deep inside the pipeline.
	if sigs := opt.PrecomputedSignatures; sigs != nil {
		if len(sigs) != len(sets) {
			return opt, nil, fmt.Errorf("core: %d precomputed signatures for %d sets", len(sigs), len(sets))
		}
		for i, sig := range sigs {
			if opt.Tombstones != nil && opt.Tombstones[i] {
				if sig != nil {
					return opt, nil, fmt.Errorf("core: tombstoned position %d carries a signature", i)
				}
				continue
			}
			if len(sig) != perms.K() {
				return opt, nil, fmt.Errorf("core: signature %d has %d coordinates, embedding has k=%d", i, len(sig), perms.K())
			}
		}
	} else {
		opt.PrecomputedSignatures = signCollection(perms, sets, ResolveWorkers(opt.Workers))
	}

	// D_S is neither estimated nor consulted under a plan override.
	if opt.PlanOverride != nil {
		return opt, perms, nil
	}
	if opt.Distribution, err = EstimateDistribution(sets, opt.PrecomputedSignatures, opt); err != nil {
		return opt, nil, err
	}
	// The capture model needs the signature length of the embedding it
	// serves.
	popt := opt.Plan
	if popt.SignatureK == 0 {
		popt.SignatureK = perms.K()
	}
	plan, err := optimize.BuildPlan(opt.Distribution, popt)
	if err != nil {
		return opt, nil, err
	}
	opt.PlanOverride = &plan
	return opt, perms, nil
}

// EstimateDistribution reproduces Build's similarity-distribution step as
// a standalone function: the exact histogram from the raw sets when
// opt.DistSample is negative, otherwise the Lemma 1 signature-pair sample
// (default min(100·N, 200000) pairs, seeded with opt.DistSeed+7).
// opt.Distribution, when set, is returned as it is.
func EstimateDistribution(sets []set.Set, sigs []minhash.Signature, opt Options) (*simdist.Histogram, error) {
	if opt.Distribution != nil {
		return opt.Distribution, nil
	}
	if opt.DistSample < 0 {
		return simdist.ExactPairs(sets, opt.DistBins), nil
	}
	sample := opt.DistSample
	if sample == 0 {
		sample = 100 * len(sets)
		if sample > 200000 {
			sample = 200000
		}
	}
	maxPairs := len(sets) * (len(sets) - 1) / 2
	if sample > maxPairs {
		sample = maxPairs
	}
	if sample < 1 {
		sample = 1
	}
	return simdist.SampleSignaturePairsN(sigs, sample, opt.DistBins, opt.DistSeed+7, ResolveWorkers(opt.Workers))
}

// SignCollection computes every set's min-hash signature exactly as Build
// does (index-addressed parallel writes, bit-identical for every worker
// count). The permutations must come from the same options the signatures
// will be used with. The benchmark times Build's signing step with it.
func SignCollection(perms *minhash.Perms, sets []set.Set, workers int) []minhash.Signature {
	return signCollection(perms, sets, ResolveWorkers(workers))
}

// SortMatches orders results by descending similarity, ties by ascending
// sid — the query processor's total order. Exported for the engine's
// cross-shard gather, which must merge per-shard result slices back into
// exactly this order.
func SortMatches(matches []Match) { sortMatches(matches) }

// Sets returns the live collection indexed by sid (tombstoned sids are
// skipped, so after deletions the result is dense but renumbered relative
// to the original sids). The sets alias the store's: sets are immutable,
// so they stay valid as the index keeps mutating.
func (ix *Index) Sets() []set.Set {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	out := make([]set.Set, 0, ix.n)
	ix.store.Scan(nil, func(sid storage.SID, s set.Set) bool {
		out = append(out, s)
		return true
	})
	return out
}

// SetsBySID returns the collection indexed by original sid: slot i holds
// sid i's set, with tombstoned sids left as nil pointers. Unlike Sets, no
// renumbering happens after deletions, which is what sid-addressed callers
// (the durability layer's replay, the public snapshot's name alignment)
// need. The pointed-to sets alias the store's, as in Sets.
func (ix *Index) SetsBySID() []*set.Set {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	out := make([]*set.Set, len(ix.sigs))
	ix.store.Scan(nil, func(sid storage.SID, s set.Set) bool {
		out[sid] = &s
		return true
	})
	return out
}

// CaptureRebuild returns everything a from-scratch Build needs to
// reproduce this index's exact sid space at a consistent point in time:
// the sets and signatures indexed by sid (feed them back as
// PrecomputedSignatures), and the tombstone marks for deleted sids. The
// captured sets and signatures alias the ones the store and index hold,
// which are immutable once appended — so the capture stays valid as the
// live index keeps mutating.
// The re-tuner captures each shard under its shard mutex, rebuilds
// off-lock from the capture, and replays the journaled delta at swap
// time.
func (ix *Index) CaptureRebuild() (sets []set.Set, sigs []minhash.Signature, tombstones []bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	n := len(ix.sigs)
	sets = make([]set.Set, n)
	sigs = make([]minhash.Signature, n)
	tombstones = make([]bool, n)
	copy(sigs, ix.sigs)
	for i := range tombstones {
		tombstones[i] = true
	}
	ix.store.Scan(nil, func(sid storage.SID, s set.Set) bool {
		sets[sid] = s
		tombstones[sid] = false
		return true
	})
	return sets, sigs, tombstones
}

// Signature returns sid's min-hash signature (nil for tombstoned sids).
// Signatures are immutable once assigned, so the returned slice stays
// valid without the lock. The engine feeds it to the drift tracker right
// after an insert, avoiding a second signing pass.
func (ix *Index) Signature(sid storage.SID) minhash.Signature {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if int(sid) >= len(ix.sigs) {
		return nil
	}
	return ix.sigs[sid]
}

// BuildOptions returns the resolved options the index was built with
// (immutable after Build): Prepare's result, with its distribution and
// plan as overrides, less the signatures and tombstones. The re-tuner
// copies them, overrides the plan and inputs, and rebuilds — preserving
// every knob (page size, payload accounting, seeds, worker budget) the
// original build used.
func (ix *Index) BuildOptions() Options { return ix.buildOpts }

// Plan returns the optimizer's plan for inspection.
func (ix *Index) Plan() optimize.Plan { return ix.plan }

// Len returns the collection size.
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.n
}

// NumAllocated returns the allocated sid space: live sets plus tombstones.
// Sids are dense in [0, NumAllocated).
func (ix *Index) NumAllocated() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.sigs)
}

// Store exposes the underlying set store (for the scan baseline and eval).
func (ix *Index) Store() *storage.SetStore { return ix.store }

// Embedder exposes the min-hash permutations the index signs with (queries
// must be signed with the same ones).
func (ix *Index) Embedder() *minhash.Perms { return ix.perms }

// IndexPages returns the number of pages consumed by filter-index buckets,
// summed across every table.
func (ix *Index) IndexPages() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	n := 0
	for _, f := range ix.fis {
		n += f.Pages()
	}
	return n
}

// Candidates runs only the filter stage for the range [s1, s2], returning
// the deduplicated candidate sids (the paper's answer set A before
// verification). Index I/O is charged to stats.
func (ix *Index) Candidates(q set.Set, s1, s2 float64, stats *QueryStats) ([]storage.SID, error) {
	if err := checkRange(s1, s2); err != nil {
		return nil, err
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	sc := ix.scratch.Get().(*queryScratch)
	defer ix.scratch.Put(sc)
	ix.perms.SignInto(q, sc.sig)
	cands, err := ix.candidatesFromSignature(sc.sig, s1, s2, stats, sc)
	return slices.Clone(cands), err
}

// combination resolves the enclosing partition points of [s1, s2] and the
// plan's Section 4.3 combination for them, recording the points in stats.
func (ix *Index) combination(s1, s2 float64, stats *QueryStats) (optimize.Combination, error) {
	lo, hi := ix.plan.Enclose(s1, s2)
	stats.EnclosedLo, stats.EnclosedHi = lo, hi
	c, ok := ix.plan.Combination(lo, hi)
	if !ok {
		return c, fmt.Errorf("core: no usable filter indices for range [%g, %g]", s1, s2)
	}
	return c, nil
}

// candidatesFromSignature runs the Section 4.3 filter combination. Each
// term is probed into one of sc's sid bitsets (an absent term stays empty)
// and A = (PosA \ NegA) ∪ (PosB \ NegB) is computed word by word. The
// returned ascending sids alias sc and are valid until its next use.
func (ix *Index) candidatesFromSignature(sig minhash.Signature, s1, s2 float64, stats *QueryStats, sc *queryScratch) ([]storage.SID, error) {
	c, err := ix.combination(s1, s2, stats)
	if err != nil {
		return nil, err
	}
	for slot, ord := range [4]int{c.PosA, c.NegA, c.PosB, c.NegB} {
		sc.terms[slot] = ix.clearedMarks(sc.terms[slot])
		if ord >= 0 {
			sc.terms[slot] = ix.fis[ord].Probe(sig, &stats.IndexIO, sc.terms[slot])
		}
	}
	posA := sc.terms[0]
	negA, posB, negB := sc.terms[1][:len(posA)], sc.terms[2][:len(posA)], sc.terms[3][:len(posA)]
	for i := range posA {
		posA[i] = posA[i]&^negA[i] | posB[i]&^negB[i]
	}
	sc.cands = hashtable.AppendMarked(sc.cands[:0], posA)
	stats.Candidates = len(sc.cands)
	return sc.cands, nil
}

// clearedMarks returns marks resized to a zeroed sid bitset covering every
// allocated sid, reusing its capacity.
func (ix *Index) clearedMarks(marks []uint64) []uint64 {
	words := (ix.store.Len() + 63) / 64
	marks = slices.Grow(marks[:0], words)[:words]
	clear(marks)
	return marks
}

// QueryWithOptions answers the set similarity range query (q, [s1, s2])
// of Definition 2 — filter, fetch, verify — with the processor tunables
// of QueryOptions. Results are sorted by descending similarity, ties by
// ascending sid.
func (ix *Index) QueryWithOptions(q set.Set, s1, s2 float64, opt QueryOptions) ([]Match, QueryStats, error) {
	return ix.QueryPresigned(q, nil, s1, s2, opt)
}

// QueryPresigned is the range-query processor: every range read, on every
// arm, runs here. sig is the query's min-hash signature if the caller has
// it (the sharded engine signs once per query and fans it to every shard
// — every shard's permutations come from identical options, so the local signature
// would be bit-identical, and skipping the per-shard SignInto removes the
// dominant redundant CPU cost of a scatter); nil signs q locally. sig
// must have the embedding's k coordinates and is not retained.
//
// opt.Arm picks the access path. The probe and scan arms produce the same
// candidates and verify them alike, so their matches are byte-identical;
// the scan charges one sequential heap read instead of per-fetch I/O. The
// screen arm answers from the candidates' signature estimates.
func (ix *Index) QueryPresigned(q set.Set, sig minhash.Signature, s1, s2 float64, opt QueryOptions) ([]Match, QueryStats, error) {
	if err := checkRange(s1, s2); err != nil {
		return nil, QueryStats{}, err
	}
	if err := checkMargin(opt.ScreenMargin); err != nil {
		return nil, QueryStats{}, err
	}
	return ix.query(q, sig, func(sig minhash.Signature, sc *queryScratch, stats *QueryStats) ([]Match, error) {
		var cands []storage.SID
		var err error
		if opt.Arm == ArmScan {
			cands, err = ix.scanCandidates(sig, s1, s2, stats, sc)
		} else {
			cands, err = ix.candidatesFromSignature(sig, s1, s2, stats, sc)
		}
		if err != nil {
			return nil, err
		}
		var matches []Match
		if opt.Arm == ArmScreen {
			matches, err = ix.screenCandidates(sig, cands, s1, s2, stats)
		} else {
			matches, err = ix.verifyCandidates(q, sig, cands, s1, s2, opt, stats)
		}
		if err != nil {
			return nil, err
		}
		if opt.Arm == ArmScan {
			// The scan verifies in place: its I/O is the one sequential
			// heap read, not the fetches verification charged.
			stats.FetchIO = storage.Counter{}
			stats.FetchIO.RecordSeq(ix.store.NumPages())
		}
		sortMatches(matches)
		return matches, nil
	})
}

// query is the preamble every query entry shares: it holds the read lock
// and pooled scratch while body runs, signs q into the scratch unless the
// caller passed sig, and stamps the result count and processor time.
func (ix *Index) query(q set.Set, sig minhash.Signature, body func(sig minhash.Signature, sc *queryScratch, stats *QueryStats) ([]Match, error)) ([]Match, QueryStats, error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	var stats QueryStats
	start := time.Now()
	sc := ix.scratch.Get().(*queryScratch)
	defer ix.scratch.Put(sc)
	if sig == nil {
		ix.perms.SignInto(q, sc.sig)
		sig = sc.sig
	}
	matches, err := body(sig, sc, &stats)
	if err != nil {
		return nil, stats, err
	}
	stats.Results = len(matches)
	stats.CPU = time.Since(start)
	return matches, stats, nil
}

// checkRange rejects a similarity range outside 0 <= s1 <= s2 <= 1. The
// test is written in the accepting form so that a NaN bound, for which
// every comparison is false, is rejected too.
func checkRange(s1, s2 float64) error {
	if s1 >= 0 && s2 <= 1 && s1 <= s2 {
		return nil
	}
	return fmt.Errorf("core: invalid range [%g, %g]", s1, s2)
}

// checkMargin rejects a screening margin that is negative, NaN or
// infinite, on every arm and whether or not screening is on: a NaN or
// infinite margin would silently screen nothing, and a negative one is no
// width at all.
func checkMargin(eps float64) error {
	if eps >= 0 && !math.IsInf(eps, 1) {
		return nil
	}
	return fmt.Errorf("core: invalid screen margin %g", eps)
}

// sortMatches orders results by descending similarity, ties by ascending
// sid — a deterministic total order, so serial and parallel verification
// return identical slices. It is a stable LSD radix sort over the byte
// digits of radixDigit, skipping any digit constant across the input; the
// result does not depend on the input order.
func sortMatches(matches []Match) {
	if len(matches) < 2 {
		return
	}
	// sidVar and simVar have a bit set wherever some match differs from
	// the first. Input that already ascends by sid, as verification emits
	// it, needs no sid pass at all.
	var sidVar uint32
	var simVar uint64
	sidSorted := true
	for i, m := range matches[1:] {
		sidVar |= m.SID ^ matches[0].SID
		simVar |= math.Float64bits(m.Similarity) ^ math.Float64bits(matches[0].Similarity)
		sidSorted = sidSorted && matches[i].SID < m.SID
	}
	if sidSorted {
		sidVar = 0
	}
	bp := sortScratch.Get().(*[]Match)
	buf := slices.Grow((*bp)[:0], len(matches))[:len(matches)]
	src, dst := matches, buf
	for d := 0; d < 12; d++ {
		if radixDigit(sidVar, simVar, d) == 0 {
			continue
		}
		var c [256]int
		for _, m := range src {
			c[radixDigit(m.SID, ^math.Float64bits(m.Similarity), d)]++
		}
		sum := 0
		for b, n := range c {
			c[b], sum = sum, sum+n
		}
		for _, m := range src {
			b := radixDigit(m.SID, ^math.Float64bits(m.Similarity), d)
			dst[c[b]] = m
			c[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &matches[0] {
		copy(matches, src)
	}
	*bp = buf
	sortScratch.Put(bp)
}

// radixDigit returns digit d, least significant first, of the sort key
// (sid, simKey): digits 0–3 are the sid's bytes and 4–11 simKey's. With
// simKey = ^bits(similarity) the key orders the non-negative similarities
// Jaccard and the estimators produce descending.
func radixDigit(sid uint32, simKey uint64, d int) byte {
	if d < 4 {
		return byte(sid >> (8 * d))
	}
	return byte(simKey >> (8 * (d - 4)))
}

// sortScratch pools sortMatches' scatter buffers.
var sortScratch = sync.Pool{New: func() any { return new([]Match) }}

// Insert adds a new set to the collection and all filter indices, returning
// its sid — the dynamic maintenance the paper notes hash indices support.
// The optimizer's plan is not re-derived; for drastic distribution shifts,
// rebuild.
func (ix *Index) Insert(s set.Set) (storage.SID, error) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	sid := ix.store.Append(s)
	sig := ix.perms.Sign(s)
	ix.sigs = append(ix.sigs, sig)
	for _, f := range ix.fis {
		f.Insert(sig, sid)
	}
	ix.n++
	return sid, nil
}

// Delete removes sid from every filter index and tombstones its record —
// the deletion side of the paper's "fully dynamic" claim. The sid stays
// allocated (queries simply never return it); heap compaction is out of
// scope.
func (ix *Index) Delete(sid storage.SID) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if int(sid) >= len(ix.sigs) {
		return fmt.Errorf("core: sid %d out of range", sid)
	}
	if ix.sigs[sid] == nil {
		return fmt.Errorf("core: sid %d already deleted", sid)
	}
	if err := ix.store.Delete(sid); err != nil {
		return err
	}
	for _, f := range ix.fis {
		f.Delete(ix.sigs[sid], sid)
	}
	ix.sigs[sid] = nil
	ix.n--
	return nil
}

// FilterIndexes reports the built structures as (point, kind, tables, r)
// rows for inspection, in plan order (ascending by point, the DFI before
// the SFI at the point carrying both). The filter indices are immutable
// after Build, so no lock is taken.
func (ix *Index) FilterIndexes() []optimize.FI {
	out := make([]optimize.FI, len(ix.fis))
	for i, f := range ix.fis {
		out[i] = optimize.FI{Point: ix.plan.FIs[i].Point, Kind: f.Kind(), Tables: f.Tables(), R: f.SampledBits()}
	}
	return out
}

// EstimateSimilarity returns the min-hash estimate of sim(q, sid) without
// touching storage, together with its 95%-confidence half-width.
func (ix *Index) EstimateSimilarity(q set.Set, sid storage.SID) (est float64, epsAt95 float64, err error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if int(sid) >= len(ix.sigs) {
		return 0, 0, fmt.Errorf("core: sid %d out of range", sid)
	}
	if ix.sigs[sid] == nil {
		return 0, 0, fmt.Errorf("core: sid %d deleted", sid)
	}
	est, err = minhash.Estimate(ix.perms.Sign(q), ix.sigs[sid])
	if err != nil {
		return 0, 0, err
	}
	return est, ix.eps, nil
}

// Eps95 is the two-sided 95%-confidence half-width of the signature
// estimate — the default screening margin and the planner's screen-only
// answer width.
func (ix *Index) Eps95() float64 { return ix.eps }

// SignatureBytesPerSet is the stored signature footprint per live set:
// eight bytes for each of the embedding's k coordinates.
func (ix *Index) SignatureBytesPerSet() int { return 8 * ix.perms.K() }
