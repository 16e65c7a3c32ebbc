// Scatter-gather query processing.
//
// Every query scatters across all shards and gathers with the core's total
// order (similarity descending, global sid ascending as the tie-break).
// Because every shard was planned from the same global distribution, a
// set's candidacy is independent of which shard holds it, so the gathered
// result equals what a monolithic index would return — for any shard
// count. Each shard query runs under that shard's core read lock only;
// the scatter never holds two shard locks at once, so queries on one
// shard overlap writes on another.
package engine

import (
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/minhash"
	"repro/internal/plan"
	"repro/internal/set"
	"repro/internal/storage"
)

// QueryStats aggregates per-shard query accounting. The embedded
// core.QueryStats sums counters across shards (CPU is summed processor
// time, not wall time; the shards run concurrently).
type QueryStats struct {
	core.QueryStats
	// PlanGeneration is the plan generation that answered the query.
	// Every shard of one query answers from the same generation — the
	// scatter loads the engine's plan view exactly once.
	PlanGeneration uint64
	// ShardsQueried is the number of shards the scatter probed: every
	// shard, or 0 for a result-cache hit.
	ShardsQueried int
	// Gather is the wall time of the final cross-shard merge — the
	// gather half of scatter-gather. A one-shard answer is already in
	// total order, so its gather only hands it on.
	Gather time.Duration
	// Plan is the planner's chosen plan label — "fi-probe",
	// "direct-scan", "screen-only", "mixed", or "cached" (served from the
	// result cache). Empty when the planner is disabled.
	Plan string
	// CacheHits / CacheMisses count result-cache outcomes for this query
	// (0 or 1 per query; batch callers sum them). Both zero when the
	// planner is disabled or the query is uncacheable.
	CacheHits   int
	CacheMisses int
	// PerShard holds each shard's own accounting, indexed by shard.
	PerShard []core.QueryStats
}

// aggregate folds shard stats into an engine-level view. The partition
// points come from shard 0 (identical plans ⇒ identical enclose).
func aggregate(gen uint64, per []core.QueryStats) QueryStats {
	agg := QueryStats{PlanGeneration: gen, ShardsQueried: len(per), PerShard: per}
	for i := range per {
		agg.QueryStats.Add(&per[i])
	}
	agg.EnclosedLo, agg.EnclosedHi = per[0].EnclosedLo, per[0].EnclosedHi
	return agg
}

// toGlobalMatches rewrites shard-local sids to global sids in place. tg
// must have been captured after the shard query returned (see
// shard.mapping).
func toGlobalMatches(matches []core.Match, tg []uint32) []core.Match {
	for i := range matches {
		matches[i].SID = storage.SID(tg[matches[i].SID])
	}
	return matches
}

// scatterScratch is the reusable per-query state of one scatter. The
// per-shard stats slice is not pooled: it escapes into the returned
// QueryStats.PerShard.
type scatterScratch struct {
	sig     minhash.Signature
	matches [][]core.Match
	errs    []error
}

// getScatter returns pooled scratch sized for n shards and a k-coordinate
// signature.
func (e *Engine) getScatter(n, k int) *scatterScratch {
	sc, _ := e.scatterPool.Get().(*scatterScratch)
	if sc == nil {
		sc = &scatterScratch{}
	}
	if cap(sc.sig) < k {
		sc.sig = make(minhash.Signature, k)
	}
	sc.sig = sc.sig[:k]
	if cap(sc.matches) < n {
		sc.matches = make([][]core.Match, n)
		sc.errs = make([]error, n)
	}
	sc.matches = sc.matches[:n]
	sc.errs = sc.errs[:n]
	for i := 0; i < n; i++ {
		sc.matches[i] = nil
		sc.errs[i] = nil
	}
	return sc
}

// shardQuery answers one query on shard si's core of the scattering view.
// sig is the query's signature, signed once by scatter.
type shardQuery func(si int, sig minhash.Signature) ([]core.Match, core.QueryStats, error)

// scatter is the engine's one fan-out: it signs q once (embedders are
// identical across shards), runs shard 0 on the calling goroutine and one
// goroutine per further shard, rewrites each shard's local sids to global
// ones, and gathers the union in the core's total order. The first shard
// error (in shard order) fails the query.
func (e *Engine) scatter(v *planView, q set.Set, run shardQuery) ([]core.Match, QueryStats, error) {
	n := len(e.shards)
	per := make([]core.QueryStats, n)
	emb := v.cores[0].Embedder()
	sc := e.getScatter(n, emb.K())
	defer e.scatterPool.Put(sc)
	emb.SignInto(q, sc.sig)
	one := func(si int) {
		m, st, err := run(si, sc.sig)
		if err != nil {
			sc.errs[si] = err
			return
		}
		// Capture the mapping after the query: every sid it returned was
		// fully inserted, so its toGlobal entry exists.
		sc.matches[si] = toGlobalMatches(m, e.shards[si].mapping())
		per[si] = st
	}
	var wg sync.WaitGroup
	for si := 1; si < n; si++ {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			one(si)
		}(si)
	}
	one(0)
	wg.Wait()
	var firstErr error
	for _, err := range sc.errs {
		if err != nil {
			firstErr = err
			break
		}
	}
	return gatherShards(v.gen, per, sc.matches, firstErr)
}

// gatherShards folds one query's per-shard outcomes (global sids) into
// the engine-level answer: aggregated stats always, and — unless a shard
// failed — the timed gather of the union.
func gatherShards(gen uint64, per []core.QueryStats, parts [][]core.Match, err error) ([]core.Match, QueryStats, error) {
	agg := aggregate(gen, per)
	if err != nil {
		return nil, agg, err
	}
	start := time.Now()
	m := gather(parts)
	agg.Gather = time.Since(start)
	return m, agg, nil
}

// gather concatenates per-shard match lists and restores the total order.
// Within a shard, matches arrive ordered by (similarity desc, local sid
// asc) — but local order is per-shard arrival order, not global order, so
// a plain k-way merge is not sound; a full sort over the union is. A
// single part is returned as it is: only a one-shard engine gathers one,
// and its dense sids make local order the global order.
func gather(perShard [][]core.Match) []core.Match {
	if len(perShard) == 1 {
		return perShard[0]
	}
	total := 0
	for _, m := range perShard {
		total += len(m)
	}
	out := make([]core.Match, 0, total)
	for _, m := range perShard {
		out = append(out, m...)
	}
	core.SortMatches(out)
	return out
}

// QueryWithOptions scatters the range query across every shard and
// gathers the union. Matches come back in the core's total order over
// GLOBAL sids.
func (e *Engine) QueryWithOptions(q set.Set, s1, s2 float64, opt core.QueryOptions) ([]core.Match, QueryStats, error) {
	if ps := e.planner.Load(); ps != nil {
		return e.queryPlanned(ps, q, s1, s2, opt)
	}
	// One view load per query: every shard answers from this generation,
	// even if a retune swaps the plan mid-scatter.
	return e.queryScatter(e.loadView(), nil, q, s1, s2, opt)
}

// queryScatter runs one range query against view v under decision dec
// (nil = the planner is off: every shard probes). Each shard runs core's
// one range processor with the arm the decision gives it. The option's
// worker pool is split proportionally across the shards, so the scatter
// never oversubscribes the pool beyond the one-worker-per-shard floor.
func (e *Engine) queryScatter(v *planView, dec *plan.Decision, q set.Set, s1, s2 float64, opt core.QueryOptions) ([]core.Match, QueryStats, error) {
	shares := core.SplitPool(core.ResolveWorkers(opt.Workers), len(v.cores))
	return e.scatter(v, q, func(si int, sig minhash.Signature) ([]core.Match, core.QueryStats, error) {
		inner := opt
		inner.Workers = shares[si]
		inner.Arm = armFor(dec, si)
		return v.cores[si].QueryPresigned(q, sig, s1, s2, inner)
	})
}

// TopK gathers each shard's k best and keeps the global k best. A shard's
// local top-k is a superset of its contribution to the global top-k, so
// the gathered answer has exactly the quality of a monolithic TopK (the
// same one-sided filter approximation, no extra loss).
func (e *Engine) TopK(q set.Set, k int) ([]core.Match, QueryStats, error) {
	v := e.loadView()
	m, agg, err := e.scatter(v, q, func(si int, sig minhash.Signature) ([]core.Match, core.QueryStats, error) {
		return v.cores[si].TopKPresigned(q, sig, k)
	})
	if err == nil && len(m) > k {
		m = m[:k]
		agg.Results = k
	}
	return m, agg, err
}
