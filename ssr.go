// Package ssr is an approximate, tunable index for similar-set retrieval,
// reproducing "Efficient and Tunable Similar Set Retrieval" (Gionis,
// Gunopulos, Koudas; SIGMOD 2001).
//
// Given a collection of sets, the index answers set-similarity range
// queries: return every set whose Jaccard similarity with a query set lies
// inside [lo, hi]. Sets are embedded with min-wise independent permutations
// and error-correcting codes into a Hamming space, which is then indexed by
// batteries of bit-sampling hash tables (Similarity and Dissimilarity
// Filter Indices). The index is tunable: the caller fixes a space budget
// (number of hash tables) and a recall target, and the optimizer places and
// budgets the filter indices to maximize precision subject to that target.
//
// Basic use:
//
//	c := ssr.NewCollection()
//	for _, basket := range baskets {
//		c.Add(basket...) // string elements
//	}
//	ix, err := ssr.Build(c, ssr.Options{Budget: 200, RecallTarget: 0.9})
//	...
//	matches, stats, err := ix.Query(someBasket, 0.8, 1.0)
//
// Results are approximate: all returned matches are exact (candidates are
// verified against stored sets) but a tunable fraction of true matches may
// be missed; stats report the achieved filter behaviour.
package ssr

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/minhash"
	"repro/internal/optimize"
	"repro/internal/set"
	"repro/internal/simdist"
	"repro/internal/storage"
	"repro/internal/wal"
)

// Options tunes index construction. The zero value of every field selects a
// sensible default except Budget, which must be at least 2. The query planner
// and adaptive re-tuning are switched on after Build, by Index.EnablePlanner
// and Index.EnableAutoTune.
type Options struct {
	// Budget is the total number of hash tables the index may use — the
	// space constraint of the paper's Section 5 optimization. Required: at
	// least 2, and refused if its plan gives one filter index over 2^16 tables.
	Budget int
	// RecallTarget is the expected worst-case recall threshold T in (0, 1]
	// the optimizer must respect; 0 selects the default, 0.9.
	RecallTarget float64
	// MinHashes is the signature length k (default 100, as in the paper;
	// at most 65 536).
	MinHashes int
	// HashBits is the truncation width b of each min-hash value; Hamming
	// codewords have 2^HashBits bits (default 8).
	HashBits int
	// MaxFilterIndices caps the optimizer's interval-growing loop
	// (default 16).
	MaxFilterIndices int
	// PageSize is the simulated disk page size in bytes (default 4096;
	// negative is rejected).
	PageSize int
	// PayloadBytesPerElement makes the simulated disk account each element
	// at its original record size (e.g. ~100 bytes for a URL string) even
	// though elements are stored as compact ids. It only affects the I/O
	// cost model (Stats, the planner), not results. At most 1 MiB; negative
	// is rejected.
	PayloadBytesPerElement int
	// Seed makes the whole build reproducible (default 1).
	Seed int64
	// DistSample is the number of set pairs sampled to estimate the
	// similarity distribution; 0 picks a size-based default, negative
	// forces the exact O(N²) computation.
	DistSample int
	// Workers bounds build parallelism (signing, distribution sampling,
	// filter population). 0 uses every CPU, 1 forces a serial build; every
	// value produces a bit-identical index.
	Workers int
	// Shards splits the index into independently locked partitions: writes
	// to different shards proceed concurrently, and in durable mode each
	// shard keeps its own write-ahead log and checkpoints. Queries scatter
	// across all shards and gather; because every shard is planned from
	// the one global similarity distribution, query results are identical
	// for every shard count. 0 or 1 (the default) builds the classic
	// monolithic index, bit-identical to previous releases.
	Shards int
}

// Collection accumulates sets before building an index. Elements are
// strings, interned internally; the universe never has to be declared.
// A Collection is safe for concurrent reads after building; Add calls must
// not race with each other (guarded internally, but sid assignment order
// then depends on scheduling).
type Collection struct {
	mu   sync.Mutex
	dict *set.Dictionary
	sets []set.Set
	// inFlight holds the positions record appended empty ahead of an
	// insert that has not landed yet (see record).
	inFlight map[int]bool
}

// NewCollection returns an empty collection.
func NewCollection() *Collection {
	return &Collection{dict: set.NewDictionary()}
}

// Add interns the elements and appends the set, returning its sid.
// Duplicate elements are collapsed.
func (c *Collection) Add(elements ...string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sets = append(c.sets, c.dict.InternSet(elements...))
	return len(c.sets) - 1
}

// AddIDs appends a set of pre-interned (or externally numbered) elements.
// Mixing AddIDs and Add in one collection is allowed only if the caller's
// numbering cannot collide with interned ids: interned ids are dense from
// zero, so any external id below the current dictionary size would silently
// alias an interned element (two distinct elements comparing equal, which
// corrupts every similarity the aliased sets participate in). Such
// collisions are rejected with an error instead.
func (c *Collection) AddIDs(elements ...uint64) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	interned := uint64(c.dict.Len())
	for _, e := range elements {
		if e < interned {
			return 0, fmt.Errorf("ssr: external id %d collides with the interned id space [0, %d); use ids at or above the dictionary size or intern via Add", e, interned)
		}
	}
	c.sets = append(c.sets, set.New(elements...))
	return len(c.sets) - 1, nil
}

// Len returns the number of sets added.
func (c *Collection) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.sets)
}

// Get returns the elements of set sid, resolved back to strings. Sets added
// with AddIDs return an error for ids that were never interned.
func (c *Collection) Get(sid int) ([]string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if sid < 0 || sid >= len(c.sets) {
		return nil, fmt.Errorf("ssr: sid %d out of range", sid)
	}
	return c.dict.Names(c.sets[sid])
}

// intern converts the elements of a set being added under the collection's
// dictionary, assigning the next dense ids to unseen elements.
func (c *Collection) intern(elements []string) set.Set {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dict.InternSet(elements...)
}

// unseenBit marks the ids resolve gives to query elements missing from the
// dictionary. Interned ids are dense from zero and never reach it.
const unseenBit = set.Elem(1) << 63

// resolve converts query elements under the collection's dictionary without
// writing to it: a query is a read and must leave the index's durable state
// alone. An unseen element gets an id derived only from its string (64-bit
// FNV-1a with the top bit set), so it matches no interned element and only
// enlarges the union, and answers depend neither on earlier queries nor on
// concurrent adds.
func (c *Collection) resolve(elements []string) set.Set {
	elems := make([]set.Elem, len(elements))
	c.mu.Lock()
	for i, name := range elements {
		id, ok := c.dict.Lookup(name)
		if !ok {
			id = uint64(14695981039346656037)
			for j := 0; j < len(name); j++ {
				id = (id ^ uint64(name[j])) * 1099511628211
			}
			id |= unseenBit
		}
		elems[i] = id
	}
	c.mu.Unlock()
	return set.New(elems...)
}

// record stores set s at sid position, growing the slice as needed —
// inserts on a sharded index can complete out of submission order, so
// positions between the recorded one and the end may be briefly empty
// while their inserts are in flight. Those positions stay in inFlight
// until their own record.
func (c *Collection) record(sid int, s set.Set) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.sets) <= sid {
		if len(c.sets) < sid {
			if c.inFlight == nil {
				c.inFlight = make(map[int]bool)
			}
			c.inFlight[len(c.sets)] = true
		}
		c.sets = append(c.sets, set.Set{})
	}
	delete(c.inFlight, sid)
	c.sets[sid] = s
}

// settled returns a copy of the sets below the first in-flight position:
// an insert's empty placeholder is not a set to build over.
func (c *Collection) settled() []set.Set {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.sets)
	for sid := range c.inFlight {
		n = min(n, sid)
	}
	return slices.Clone(c.sets[:n])
}

// Match is one query result.
type Match struct {
	// SID is the matching set's identifier (its Add order).
	SID int
	// Similarity is the exact Jaccard similarity with the query.
	Similarity float64
}

// Stats reports per-query cost and filter behaviour. On a sharded index
// the top-level counters aggregate across all shards and PerShard breaks
// them down by shard.
type Stats struct {
	// Candidates is how many sets the filter stage proposed.
	Candidates int
	// Results is how many verified into the requested range.
	Results int
	// Screened is how many candidates signature screening rejected without
	// a page fetch (0 unless QueryOptions.Screen is set).
	Screened int
	// ScreenedFraction is Screened/Candidates — the share of filter
	// proposals the signature estimate rejected before any page fetch (0
	// when there were no candidates or screening was off).
	ScreenedFraction float64
	// SizePruned is how many candidates were ruled out by size alone —
	// their size ratio to the query bounds their similarity below the
	// range — before any screening or page fetch. Such a candidate is not
	// counted as Screened.
	SizePruned int
	// RandomPageReads and SequentialPageReads count simulated disk I/O.
	RandomPageReads, SequentialPageReads int64
	// SimulatedIOTime converts those reads under the default cost model
	// (random read = 8 × sequential, the paper's rtn).
	SimulatedIOTime time.Duration
	// CPUTime is the measured in-memory processing time (summed across
	// shards; shards execute concurrently, so this exceeds wall time).
	CPUTime time.Duration
	// PlanGeneration identifies the plan that answered the query: 0 is
	// the build-time plan, and every adaptive retune increments it. All
	// shards of one query always answer from the same generation.
	PlanGeneration uint64
	// ShardsQueried is how many shards the scatter probed: every shard,
	// or 0 when the result cache answered. ShardsPruned is always 0 —
	// shard pruning was deleted; the field stays only because
	// benchmark/trace.go reads it, and goes with the next benchmark PR.
	ShardsQueried, ShardsPruned int
	// GatherTime is the wall time of the final cross-shard merge — the
	// gather half of scatter-gather. A one-shard answer is already in
	// order, so there it is only the hand-over (nanoseconds).
	GatherTime time.Duration
	// PlanChosen is the query planner's chosen plan: "fi-probe",
	// "direct-scan", "screen-only", "mixed", or "cached" (answered from
	// the result cache). Empty when the planner is disabled.
	PlanChosen string
	// CacheHits / CacheMisses count result-cache outcomes for this query
	// (both zero when the planner or its result cache is disabled).
	CacheHits, CacheMisses int
	// PerShard holds each shard's own accounting, indexed by shard number
	// (one entry on an unsharded index).
	PerShard []ShardStats
}

// ShardStats is one shard's share of a query's work.
type ShardStats struct {
	// Candidates and Results are the shard's filter proposals and verified
	// matches.
	Candidates, Results int
	// RandomPageReads and SequentialPageReads count the shard's simulated
	// disk I/O.
	RandomPageReads, SequentialPageReads int64
}

// Index answers similarity range queries over a built collection.
// It is safe for concurrent use. With Options.Shards > 1 the index is
// partitioned across independently locked shards: writes to different
// shards proceed concurrently and queries scatter-gather, with identical
// results to the monolithic layout.
type Index struct {
	coll  *Collection
	inner *engine.Engine
	// dur is non-nil for indices opened through OpenDurable/CreateDurable:
	// mutations then pass through the write-ahead log before they are
	// acknowledged. See durable.go.
	dur *durable
	// tune holds the auto-tuning loop's lifecycle and swap bookkeeping.
	// See tune.go.
	tune tuneRuntime
	// replica marks a replication follower (OpenReplica): external
	// mutations are rejected and the state changes only through the
	// replication stream. See replication.go.
	replica bool
}

// Build constructs the index over the collection per the paper's pipeline.
// The collection must not be mutated afterwards.
func Build(c *Collection, opt Options) (*Index, error) {
	if c == nil {
		return nil, fmt.Errorf("ssr: nil collection")
	}
	eopt := minhash.DefaultOptions()
	if opt.MinHashes > 0 {
		eopt.K = opt.MinHashes
	}
	if opt.HashBits > 0 {
		eopt.Bits = opt.HashBits
	}
	if opt.Seed != 0 {
		eopt.Seed = opt.Seed
	}
	inner, err := engine.Build(c.settled(), engine.Options{
		Shards:     opt.Shards,
		RouterSeed: opt.Seed,
		Core: core.Options{
			Embed:          eopt,
			Plan:           optimize.Options{Budget: opt.Budget, RecallTarget: opt.RecallTarget, MaxFIs: opt.MaxFilterIndices},
			PageSize:       opt.PageSize,
			PayloadPerElem: opt.PayloadBytesPerElement,
			DistSample:     opt.DistSample,
			DistSeed:       opt.Seed,
			Workers:        opt.Workers,
		},
	})
	if err != nil {
		return nil, err
	}
	return &Index{coll: c, inner: inner}, nil
}

// Shards returns the number of independently locked partitions the index
// runs on (1 for the classic monolithic layout).
func (ix *Index) Shards() int { return ix.inner.NumShards() }

// Query returns the sets whose Jaccard similarity with the query elements
// lies in [lo, hi], sorted by descending similarity.
func (ix *Index) Query(elements []string, lo, hi float64) ([]Match, Stats, error) {
	return ix.query(ix.coll.resolve(elements), lo, hi)
}

// QuerySID uses an existing collection member as the query set.
func (ix *Index) QuerySID(sid int, lo, hi float64) ([]Match, Stats, error) {
	q, err := ix.memberSet(sid)
	if err != nil {
		return nil, Stats{}, err
	}
	return ix.query(q, lo, hi)
}

// memberSet returns collection member sid's set for use as a query.
func (ix *Index) memberSet(sid int) (set.Set, error) {
	ix.coll.mu.Lock()
	defer ix.coll.mu.Unlock()
	if sid < 0 || sid >= len(ix.coll.sets) {
		return set.Set{}, fmt.Errorf("ssr: sid %d out of range", sid)
	}
	return ix.coll.sets[sid], nil
}

// QueryIDs queries with externally numbered elements (matching AddIDs).
func (ix *Index) QueryIDs(elements []uint64, lo, hi float64) ([]Match, Stats, error) {
	return ix.query(set.New(elements...), lo, hi)
}

func (ix *Index) query(q set.Set, lo, hi float64) ([]Match, Stats, error) {
	return ix.queryOpts(q, lo, hi, QueryOptions{})
}

// checkRange rejects a similarity range outside 0 <= lo <= hi <= 1. The
// test is written in the accepting form so that a NaN bound, for which
// every comparison is false, is rejected too.
func checkRange(lo, hi float64) error {
	if lo >= 0 && hi <= 1 && lo <= hi {
		return nil
	}
	return fmt.Errorf("ssr: invalid similarity range [%g, %g]", lo, hi)
}

func (ix *Index) queryOpts(q set.Set, lo, hi float64, opt QueryOptions) ([]Match, Stats, error) {
	if err := checkRange(lo, hi); err != nil {
		return nil, Stats{}, err
	}
	matches, qs, err := ix.inner.QueryWithOptions(q, lo, hi, opt.toCore())
	if err != nil {
		return nil, Stats{}, err
	}
	return convertMatches(matches), ix.convertStats(qs), nil
}

// convertMatches maps internal matches to the public type.
func convertMatches(matches []core.Match) []Match {
	out := make([]Match, len(matches))
	for i, m := range matches {
		out[i] = Match{SID: int(m.SID), Similarity: m.Similarity}
	}
	return out
}

// convertStats maps internal query stats to the public type under the
// default cost model, carrying the per-shard breakdown through.
func (ix *Index) convertStats(qs engine.QueryStats) Stats {
	model := storage.DefaultCostModel()
	st := Stats{
		Candidates:          qs.Candidates,
		Results:             qs.Results,
		Screened:            qs.Screened,
		SizePruned:          qs.SizePruned,
		RandomPageReads:     qs.IndexIO.Rand() + qs.FetchIO.Rand(),
		SequentialPageReads: qs.IndexIO.Seq() + qs.FetchIO.Seq(),
		SimulatedIOTime:     qs.SimIOTime(model),
		CPUTime:             qs.CPU,
		PlanGeneration:      qs.PlanGeneration,
		ShardsQueried:       qs.ShardsQueried,
		GatherTime:          qs.Gather,
		PlanChosen:          qs.Plan,
		CacheHits:           qs.CacheHits,
		CacheMisses:         qs.CacheMisses,
	}
	if st.Candidates > 0 {
		st.ScreenedFraction = float64(st.Screened) / float64(st.Candidates)
	}
	for i := range qs.PerShard {
		ps := &qs.PerShard[i]
		st.PerShard = append(st.PerShard, ShardStats{
			Candidates:          ps.Candidates,
			Results:             ps.Results,
			RandomPageReads:     ps.IndexIO.Rand() + ps.FetchIO.Rand(),
			SequentialPageReads: ps.IndexIO.Seq() + ps.FetchIO.Seq(),
		})
	}
	return st
}

// QueryOptions tunes the query processor. The zero value reproduces Query's
// default behaviour.
type QueryOptions struct {
	// Screen skips the page fetch for candidates whose similarity, estimated
	// from the stored min-hash signatures alone, falls outside the query
	// range widened by ScreenMargin. Returned matches stay exact; a small
	// fraction of true matches (those whose estimate errs by more than the
	// margin) may additionally be missed. Screened counts appear in Stats.
	Screen bool
	// ScreenMargin is the widening ε on the Jaccard scale; 0 selects the
	// 95%-confidence bound for the index's signature length. A negative,
	// NaN or infinite margin makes the query fail.
	ScreenMargin float64
	// Workers bounds query parallelism (batch fan-out and per-query
	// candidate verification). 0 uses every CPU, 1 forces serial processing.
	Workers int
	// AllowApproximate permits the query planner (Index.EnablePlanner) to
	// answer from signature estimates alone — the screen-only plan — when
	// the range is wide relative to the estimator's 95%-confidence width
	// and the cost model favours it. Returned similarities are then
	// ESTIMATES, not exact Jaccard, and sets near the range boundary can
	// be missed or misplaced; Stats.PlanChosen reports "screen-only" when
	// it happened. Ignored when the planner is disabled — no other path
	// ever returns approximate similarities.
	AllowApproximate bool
}

func (o QueryOptions) toCore() core.QueryOptions {
	return core.QueryOptions{
		Screen:           o.Screen,
		ScreenMargin:     o.ScreenMargin,
		Workers:          o.Workers,
		AllowApproximate: o.AllowApproximate,
	}
}

// QueryWithOptions is Query with explicit processor tunables.
func (ix *Index) QueryWithOptions(elements []string, lo, hi float64, opt QueryOptions) ([]Match, Stats, error) {
	return ix.queryOpts(ix.coll.resolve(elements), lo, hi, opt)
}

// BatchQuery is one entry of a QueryBatch call.
type BatchQuery struct {
	// Elements is the query set.
	Elements []string
	// Lo, Hi is the Jaccard similarity range.
	Lo, Hi float64
}

// BatchResult is the outcome of one batch entry — exactly what Query would
// have returned for it.
type BatchResult struct {
	Matches []Match
	Stats   Stats
	Err     error
}

// QueryBatch answers many range queries concurrently. Results are
// positional: result i answers query i, and is exactly what
// QueryWithOptions would return for it — every entry is validated,
// resolved, planned and run as its own single query, under its own shard
// read locks, so a concurrent Add or Remove may land between two entries.
// Options apply to every entry. Workers bounds the whole batch: it is
// split across the concurrently running entries, each of which gets its
// share for its own scatter and verification.
func (ix *Index) QueryBatch(queries []BatchQuery, opt QueryOptions) []BatchResult {
	results := make([]BatchResult, len(queries))
	pool := core.ResolveWorkers(opt.Workers)
	shares := core.SplitPool(pool, min(pool, len(queries)))
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, share := range shares {
		inner := opt
		inner.Workers = share
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(queries); i = int(next.Add(1)) - 1 {
				bq, r := queries[i], &results[i]
				r.Matches, r.Stats, r.Err = ix.queryOpts(ix.coll.resolve(bq.Elements), bq.Lo, bq.Hi, inner)
			}
		}()
	}
	wg.Wait()
	return results
}

// Add inserts a new set into the collection and the live index, returning
// its sid. The filter-index layout is not re-optimized. On a durable index
// the insert is logged before it is acknowledged.
func (ix *Index) Add(elements ...string) (int, error) {
	if ix.replica {
		return 0, ErrReplicaReadOnly
	}
	if ix.dur != nil {
		return ix.dur.add(ix, elements)
	}
	return ix.add(elements)
}

// add is the in-memory insert path. Interning happens before the engine
// insert and recording after it, with the collection lock held only for
// those two leaf steps — never across the engine call — so concurrent
// adds to different shards proceed in parallel. The ordering keeps
// snapshots consistent: elements are in the dictionary before any engine
// state references them (Save captures engine bytes first, names after,
// so the captured dictionary is always a superset of what the captured
// engine needs), and the engine assigns the global sid, so two concurrent
// adds can never disagree with it.
func (ix *Index) add(elements []string) (int, error) {
	s := ix.coll.intern(elements)
	g, err := ix.inner.Insert(s)
	if err != nil {
		return 0, err
	}
	ix.coll.record(int(g), s)
	return int(g), nil
}

// EstimateAnswerSize predicts how many sets a query with range [lo, hi]
// would return on average, from the similarity distribution the index was
// tuned to — useful for choosing ranges and for cost decisions before
// running anything.
func (ix *Index) EstimateAnswerSize(lo, hi float64) (float64, error) {
	if err := checkRange(lo, hi); err != nil {
		return 0, err
	}
	return ix.inner.EstimateAnswerSize(lo, hi)
}

// TopK returns the k sets most similar to the query elements, best first
// (approximate nearest neighbours; similarities of returned matches are
// exact).
func (ix *Index) TopK(elements []string, k int) ([]Match, Stats, error) {
	return ix.topK(ix.coll.resolve(elements), k)
}

// TopKSID uses an existing collection member as the query set.
func (ix *Index) TopKSID(sid, k int) ([]Match, Stats, error) {
	q, err := ix.memberSet(sid)
	if err != nil {
		return nil, Stats{}, err
	}
	return ix.topK(q, k)
}

func (ix *Index) topK(q set.Set, k int) ([]Match, Stats, error) {
	matches, qs, err := ix.inner.TopK(q, k)
	if err != nil {
		return nil, Stats{}, err
	}
	return convertMatches(matches), ix.convertStats(qs), nil
}

// Remove deletes set sid from the index. The sid is never reused;
// queries simply stop returning it. On a durable index the delete is
// logged before it is acknowledged. Sids live in a uint32 space, so a
// larger sid is rejected here rather than truncated onto a smaller one.
func (ix *Index) Remove(sid int) error {
	if ix.replica {
		return ErrReplicaReadOnly
	}
	if sid < 0 || uint64(sid) > math.MaxUint32 {
		return fmt.Errorf("ssr: sid %d out of range", sid)
	}
	rec := wal.Record{Op: wal.OpDelete, SID: uint32(sid)}
	if ix.dur != nil {
		return ix.dur.remove(ix, rec)
	}
	return ix.apply(ix.inner.ShardOf(rec.SID), rec)
}

// FilterIndexSummary describes one built filter index.
type FilterIndexSummary struct {
	// Point is the partition point on the Jaccard scale.
	Point float64
	// Kind is "SFI" or "DFI".
	Kind string
	// Tables is the number of hash tables allocated (l).
	Tables int
	// SampledBits is the per-table bit sample size (r).
	SampledBits int
}

// PlanSummary exposes the tunable layout the optimizer chose.
type PlanSummary struct {
	// Cuts are the interior partition points.
	Cuts []float64
	// Delta is the equal-mass SFI/DFI split point.
	Delta float64
	// FilterIndexes lists the built structures.
	FilterIndexes []FilterIndexSummary
	// ExpectedWorstRecall and ExpectedWorstPrecision are the optimizer's
	// model predictions over interval-aligned queries.
	ExpectedWorstRecall, ExpectedWorstPrecision float64
	// RecallMet reports whether the recall target was attainable within
	// the budget.
	RecallMet bool
}

// Plan returns the layout the optimizer chose, for inspection and tuning.
func (ix *Index) Plan() PlanSummary {
	p := ix.inner.Plan()
	sum := PlanSummary{
		Cuts:                   append([]float64(nil), p.Cuts...),
		Delta:                  p.Delta,
		ExpectedWorstRecall:    p.WorstRecall,
		ExpectedWorstPrecision: p.WorstPrecision,
		RecallMet:              p.RecallMet,
	}
	for _, fi := range ix.inner.FilterIndexes() {
		sum.FilterIndexes = append(sum.FilterIndexes, FilterIndexSummary{
			Point:       fi.Point,
			Kind:        fi.Kind.String(),
			Tables:      fi.Tables,
			SampledBits: fi.R,
		})
	}
	return sum
}

// Distribution returns the similarity histogram the index was tuned to,
// as normalized masses per bin over [0, 1]. It returns nil when no profile
// is known: an index loaded or recovered from disk learns one at its first
// retune.
func (ix *Index) Distribution() []float64 {
	h := ix.inner.Distribution()
	if h == nil {
		return nil
	}
	return binMasses(h)
}

// binMasses returns h's mass per bin, normalized to sum to 1 (all zero
// when h is empty).
func binMasses(h *simdist.Histogram) []float64 {
	out := h.RawBins()
	total := h.Total()
	if total == 0 {
		return make([]float64, len(out))
	}
	n := float64(len(out))
	for i, w := range out {
		// h.Mass over exactly bin i, in Mass's operation order, without
		// Mass's scan of every bin.
		out[i] = w * (float64(i+1)/n - float64(i)/n) * n / total
	}
	return out
}

// Len returns the number of live sets in the index (inserts minus
// removals).
func (ix *Index) Len() int { return ix.inner.Len() }

// Internal exposes the underlying engine for benchmark and experiment
// code inside this module. It is not part of the stable API.
func (ix *Index) Internal() *engine.Engine { return ix.inner }

// Sets returns a copy of the collection's set views (internal use by the
// benchmark harness). A removed sid keeps its content in the index that
// removed it — the harness re-scores answers kept from before a removal
// against it — while an index loaded or recovered from disk reads every
// removed sid as empty.
func (ix *Index) Sets() []set.Set {
	ix.coll.mu.Lock()
	defer ix.coll.mu.Unlock()
	out := make([]set.Set, len(ix.coll.sets))
	copy(out, ix.coll.sets)
	return out
}

// EstimateDistribution estimates the collection's similarity distribution
// without building an index — useful for choosing a budget before Build.
// It returns normalized per-bin masses over [0, 1] in bins bins: at most
// 2^20, and bins <= 0 selects the default of 200. samplePairs <= 0 samples
// 20 000 pairs (at most every pair of the collection).
func EstimateDistribution(c *Collection, bins, samplePairs int, seed int64) ([]float64, error) {
	c.mu.Lock()
	sets := make([]set.Set, len(c.sets))
	copy(sets, c.sets)
	c.mu.Unlock()
	if samplePairs <= 0 {
		samplePairs = 20000
	}
	maxPairs := len(sets) * (len(sets) - 1) / 2
	if samplePairs > maxPairs {
		samplePairs = maxPairs
	}
	h, err := simdist.SamplePairs(sets, samplePairs, bins, seed)
	if err != nil {
		return nil, err
	}
	return binMasses(h), nil
}
