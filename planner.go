// Public surface of the cost-based query planner.
//
// The planner prices each range query from the index's live similarity
// distribution (the auto-tuner's drift sketch when one is running, the
// build-time histogram otherwise) and the storage cost model, then
// executes the cheapest of three plans:
//
//   - fi-probe: the default filter-index pipeline (exact);
//   - direct-scan: a sequential heap scan that recomputes each stored
//     set's candidacy exactly (exact, byte-identical to fi-probe);
//   - screen-only: answers from signature estimates without fetching set
//     data (approximate; only under QueryOptions.AllowApproximate).
//
// Plan decisions and exact results are cached. Both caches carry an
// invalidation token — the plan generation plus per-shard mutation
// counters — captured before the query executes; any retune, recovery
// reload, insert, or delete changes the token, so stale entries are
// lazily evicted on the next lookup and never served.
package ssr

import "repro/internal/engine"

// PlannerPolicy tunes the cost-based query planner; the zero value
// selects defaults for every field. It is the engine's policy type.
type PlannerPolicy = engine.PlannerPolicy

// EnablePlanner turns on the cost-based query planner with the given
// policy (zero value for defaults). Safe to call on a live index;
// concurrent queries pick the planner up on their next dispatch. Exact
// plans and all cached answers stay byte-identical to the default
// pipeline; only AllowApproximate queries can receive estimates.
func (ix *Index) EnablePlanner(p PlannerPolicy) { ix.inner.EnablePlanner(p) }

// DisablePlanner turns the planner off and drops its caches. Queries in
// flight finish under whichever mode they observed at dispatch.
func (ix *Index) DisablePlanner() { ix.inner.DisablePlanner() }

// PlannerEnabled reports whether the cost-based planner is active.
func (ix *Index) PlannerEnabled() bool { return ix.inner.PlannerEnabled() }
