// Cost-based query planning over the sharded engine.
//
// With the planner enabled, every range query flows through queryPlanned:
//
//  1. Snapshot the invalidation token — the plan generation plus every
//     shard's mutation counter. The snapshot happens BEFORE the view load
//     and the query runs, so a mutation landing mid-query makes the token
//     stale rather than the served results (conservative, never wrong).
//  2. Probe the result cache. A hit returns the cached matches before any
//     scatter scratch is pooled and before any shard lock is touched.
//  3. Probe the plan cache (bucketed range → Decision, tolerant of
//     bounded mutation drift within a generation), else price the three
//     plans from the live D_S sketch (the tuner's, when tuning is on),
//     the Lemma 1 capture fraction, and the storage cost model.
//  4. Execute the decision through the ordinary scatter, each shard
//     running core's range processor on the arm the decision gives it
//     (probe / scan / screen), and store exact results back into the
//     result cache.
//
// Exact plans (fi-probe, direct-scan, and everything the result cache
// serves) are byte-identical to the default pipeline; the approximate
// screen-only plan is dispatched only under QueryOptions.AllowApproximate
// and is never cached. Lock order: both caches lock strictly outside the
// engine chain — every cache call in this file runs while holding no
// other lock (see the package comment in engine.go).
package engine

import (
	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/set"
	"repro/internal/storage"
)

// planCachedLabel is the QueryStats.Plan value of a result-cache hit.
const planCachedLabel = "cached"

// maxCacheElems bounds the query cardinality the result cache accepts:
// hashing and equality-checking huge query sets costs more than the
// pipeline they would skip.
const maxCacheElems = 4096

// maxCacheMatches bounds the result size the cache stores, keeping the
// worst-case cache footprint at entries × matches × 16 bytes.
const maxCacheMatches = 4096

// PlannerPolicy configures EnablePlanner. The zero value selects the
// defaults noted per field.
type PlannerPolicy struct {
	// ResultCacheEntries bounds the query-result LRU cache (0 = 1024,
	// negative = no result cache).
	ResultCacheEntries int
	// PlanCacheEntries bounds the plan-decision LRU cache, keyed on
	// bucketed similarity ranges (0 = 256, negative = no plan cache).
	PlanCacheEntries int
	// MutationTolerance is how many inserts and deletes a cached plan
	// DECISION survives within one plan generation before it is re-costed
	// (0 = 1024). Cached RESULTS never tolerate drift: any mutation
	// invalidates them.
	MutationTolerance uint64
	// ForcePlan pins every query to one plan, bypassing cost comparison:
	// "fi-probe", "direct-scan", or "screen-only" (the latter still
	// requires AllowApproximate, else it degrades to fi-probe). Empty
	// selects by cost. For benchmarks and the byte-identity tests.
	ForcePlan string
}

// plannerState is the atomically-swapped planner configuration: policy
// plus caches, replaced wholesale by EnablePlanner/DisablePlanner.
type plannerState struct {
	policy  PlannerPolicy
	results *plan.ResultCache
	plans   *plan.PlanCache
}

// EnablePlanner turns on cost-based planning with the given policy.
// Existing cached state (from a previous enable) is discarded.
func (e *Engine) EnablePlanner(p PlannerPolicy) {
	if p.ResultCacheEntries == 0 {
		p.ResultCacheEntries = 1024
	}
	if p.PlanCacheEntries == 0 {
		p.PlanCacheEntries = 256
	}
	if p.MutationTolerance == 0 {
		p.MutationTolerance = 1024
	}
	st := &plannerState{policy: p}
	if p.ResultCacheEntries > 0 {
		st.results = plan.NewResultCache(p.ResultCacheEntries)
	}
	if p.PlanCacheEntries > 0 {
		st.plans = plan.NewPlanCache(p.PlanCacheEntries)
	}
	e.planner.Store(st)
}

// DisablePlanner restores the default pipeline and drops both caches.
func (e *Engine) DisablePlanner() { e.planner.Store(nil) }

// PlannerEnabled reports whether cost-based planning is active.
func (e *Engine) PlannerEnabled() bool { return e.planner.Load() != nil }

// mutsSnapshot captures every shard's mutation counter, lock-free.
func (e *Engine) mutsSnapshot() []uint64 {
	out := make([]uint64, len(e.shards))
	for i, sh := range e.shards {
		out[i] = sh.muts.Load()
	}
	return out
}

// resultKeyFor derives the result-cache key of one query; ok is false for
// uncacheable queries (oversized). The Elems slice aliases the query for
// the lookup — Put copies before storing.
func resultKeyFor(q set.Set, s1, s2 float64, opt core.QueryOptions) (plan.ResultKey, bool) {
	elems := q.Elems()
	if len(elems) > maxCacheElems {
		return plan.ResultKey{}, false
	}
	var flags uint64
	if opt.Screen {
		flags |= 1
	}
	if opt.AllowApproximate {
		flags |= 2
	}
	// The margin is keyed even with screening off: core rejects an
	// invalid one either way, so it must not hit a valid query's entry.
	return plan.ResultKey{Elems: elems, Lo: s1, Hi: s2, Flags: flags, Margin: opt.ScreenMargin}, true
}

// cachedStats builds the QueryStats of a result-cache hit.
func cachedStats(gen uint64, hit plan.CachedResult) QueryStats {
	st := QueryStats{PlanGeneration: gen, Plan: planCachedLabel, CacheHits: 1}
	st.Results = len(hit.Matches)
	st.EnclosedLo, st.EnclosedHi = hit.EnclosedLo, hit.EnclosedHi
	return st
}

// queryPlanned is QueryWithOptions under the planner. The result-cache
// probe happens before getScatter and before any shard or core lock — a
// warm repeat query allocates nothing but its stats.
func (e *Engine) queryPlanned(ps *plannerState, q set.Set, s1, s2 float64, opt core.QueryOptions) ([]core.Match, QueryStats, error) {
	muts := e.mutsSnapshot()
	v := e.loadView()
	tok := plan.Token{Gen: v.gen, Muts: muts}
	key, cacheable := resultKeyFor(q, s1, s2, opt)
	if cacheable && ps.results != nil {
		if hit, ok := ps.results.Get(key, tok); ok {
			return hit.Matches, cachedStats(v.gen, hit), nil
		}
	}
	dec := e.decidePlan(ps, v, tok, s1, s2, opt)
	m, st, err := e.queryScatter(v, &dec, q, s1, s2, opt)
	st.Plan = dec.Kind.String()
	if cacheable && ps.results != nil {
		st.CacheMisses = 1
		// Approximate answers are never cached: everything the result
		// cache serves must be byte-identical to the default pipeline.
		if err == nil && dec.Kind != plan.ScreenOnly && len(m) <= maxCacheMatches {
			ps.results.Put(key, tok, plan.CachedResult{Matches: m, EnclosedLo: st.EnclosedLo, EnclosedHi: st.EnclosedHi})
		}
	}
	return m, st, err
}

// decidePlan resolves the Decision for one (range, options) pair: forced
// plan, plan-cache hit, or a fresh cost comparison (stored back).
func (e *Engine) decidePlan(ps *plannerState, v *planView, tok plan.Token, s1, s2 float64, opt core.QueryOptions) plan.Decision {
	switch ps.policy.ForcePlan {
	case "fi-probe":
		return plan.Decision{Kind: plan.FIProbe}
	case "direct-scan":
		per := make([]plan.Kind, len(v.cores))
		for i := range per {
			per[i] = plan.DirectScan
		}
		return plan.Decision{Kind: plan.DirectScan, PerShard: per}
	case "screen-only":
		if opt.AllowApproximate {
			return plan.Decision{Kind: plan.ScreenOnly}
		}
		return plan.Decision{Kind: plan.FIProbe}
	}
	var flags uint64
	if opt.AllowApproximate {
		flags |= 1
	}
	key := plan.MakePlanKey(s1, s2, flags)
	if ps.plans != nil {
		if dec, ok := ps.plans.Get(key, tok, ps.policy.MutationTolerance); ok {
			return dec
		}
	}
	dec := e.computeDecision(v, s1, s2, opt)
	if ps.plans != nil {
		ps.plans.Put(key, tok, dec)
	}
	return dec
}

// computeDecision assembles the cost inputs — live D_S (the tuner's
// sketch when tuning is on and non-empty, else the generation's build
// histogram), Lemma 1 capture at the enclosed range, per-shard heap
// geometry — and prices the plans.
func (e *Engine) computeDecision(v *planView, s1, s2 float64, opt core.QueryOptions) plan.Decision {
	c0 := v.cores[0]
	hist := v.hist
	if tr := e.tracker.Load(); tr != nil {
		if sk := tr.Sketch(); sk != nil && sk.Total() > 0 {
			hist = sk
		}
	}
	shards := make([]plan.ShardInput, len(v.cores))
	totalLive := 0
	for si, ix := range v.cores {
		live, pages, pps := ix.ScanCostInputs()
		shards[si] = plan.ShardInput{Live: live, ScanPages: pages, PagesPerSet: pps}
		totalLive += live
	}
	frac, ok := c0.CaptureFraction(hist, s1, s2)
	pred := 0.0
	if totalLive > 1 {
		// The capture integral predicts the captured fraction of pairs;
		// for one query against N live sets that is frac·(N−1) candidates
		// (the Section 5 identity, as in Engine.EstimateAnswerSize).
		pred = frac * float64(totalLive-1)
	}
	return plan.Decide(plan.Inputs{
		Predicted:        pred,
		NoEstimate:       !ok,
		ProbeTables:      c0.ProbeTables(s1, s2),
		Shards:           shards,
		Model:            storage.DefaultCostModel(),
		Width:            s2 - s1,
		Eps95:            c0.Eps95(),
		SigBytesPerSet:   c0.SignatureBytesPerSet(),
		PageBytes:        c0.BuildOptions().PageSize,
		AllowApproximate: opt.AllowApproximate,
	})
}

// armFor resolves core's arm for shard si under a decision (nil = planner
// off = probe).
func armFor(dec *plan.Decision, si int) core.Arm {
	if dec == nil {
		return core.ArmProbe
	}
	kind := dec.Kind
	if kind != plan.ScreenOnly && dec.PerShard != nil {
		kind = dec.PerShard[si]
	}
	switch kind {
	case plan.DirectScan:
		return core.ArmScan
	case plan.ScreenOnly:
		return core.ArmScreen
	}
	return core.ArmProbe
}
