// Package plan is the cost-based query planner: given the live similarity
// distribution (the tuner's D_S sketch when tuning is on, the build-time
// histogram otherwise), the Lemma 1 selectivity of the query's enclosed
// range, and the storage cost model, it predicts the candidate cardinality
// of a range query and prices three executable plans per shard:
//
//   - fi-probe: today's pipeline — probe the filter batteries, fetch each
//     candidate with one random page access, verify exactly. Cost is
//     rand(candidates + probed tables) + seq(candidates · (pages/set − 1)),
//     the paper's index-retrieval model.
//   - direct-scan: read the shard's heap sequentially, recompute each live
//     set's filter candidacy from its stored signature, verify candidates
//     in place. Cost is seq(heap pages). Candidacy is recomputed with the
//     exact insert-key = probe-key test the tables use, so the candidate
//     set — and therefore the answer — is byte-identical to fi-probe.
//     Wins for tiny shards, where the fixed per-table probe cost
//     dominates (ROADMAP's fixed-probe-cost item).
//   - screen-only: probe the batteries but answer from the min-hash
//     similarity estimates without fetching a single data page. Cost is
//     rand(probed tables). Approximate — gated on the caller explicitly
//     opting in AND on the query range being wide relative to the
//     estimator's Chernoff 95% half-width, so the estimate is unlikely to
//     misplace sets across the range boundary.
//
// The package also provides the two caches the planner feeds: a plan cache
// keyed on bucketed query ranges and a query-result cache, both invalidated
// by generation tokens (plan generation + per-shard mutation counters) so a
// retune, hot-swap, or mutation can never serve a stale answer.
//
// Lock order: the cache mutexes sit OUTSIDE (above) the engine's
// tune → durable-shard → engine-shard → mapping → core chain. Cache calls
// are transient and made while holding no engine or core lock; nothing in
// this package calls back into the engine.
package plan

import (
	"time"

	"repro/internal/storage"
)

// Kind identifies an executable plan.
type Kind uint8

const (
	// FIProbe is the default filter-probe → fetch → verify pipeline.
	FIProbe Kind = iota
	// DirectScan sequentially scans the shard heap, recomputing filter
	// candidacy from stored signatures. Exact, byte-identical to FIProbe.
	DirectScan
	// ScreenOnly answers from signature estimates without fetching data
	// pages. Approximate; only ever chosen under AllowApproximate.
	ScreenOnly
	// Mixed marks a decision whose per-shard kinds differ (some shards
	// probe, some scan). Exact.
	Mixed
)

// String returns the stable label surfaced through QueryStats and /stats.
func (k Kind) String() string {
	switch k {
	case FIProbe:
		return "fi-probe"
	case DirectScan:
		return "direct-scan"
	case ScreenOnly:
		return "screen-only"
	case Mixed:
		return "mixed"
	}
	return "unknown"
}

// Costs reports the predicted simulated I/O time of each whole-query plan,
// for stats and benchmarks.
type Costs struct {
	FIProbe    time.Duration
	DirectScan time.Duration
	ScreenOnly time.Duration
}

// Decision is the planner's output for one query.
type Decision struct {
	// Kind is the overall plan. Mixed means consult PerShard.
	Kind Kind
	// PerShard holds the chosen exact plan per shard (FIProbe or
	// DirectScan). Nil for ScreenOnly decisions and for no-estimate
	// fallbacks, in which case every shard runs Kind.
	PerShard []Kind
	// Predicted is the estimated candidate cardinality across all shards.
	Predicted float64
	// Costs are the predicted whole-query costs the choice was made from.
	Costs Costs
	// FromCache marks a decision served by the plan cache.
	FromCache bool
}

// ShardInput is one shard's contribution to the cost inputs.
type ShardInput struct {
	// Live is the shard's live set count.
	Live int
	// ScanPages is the shard heap's sequential page count.
	ScanPages int64
	// PagesPerSet is the shard's average pages per stored set (≥ 1 pages
	// are charged per fetched candidate).
	PagesPerSet float64
}

// Inputs is everything Decide needs. The engine assembles it from the
// cores' immutable plan state and the tuner sketch.
type Inputs struct {
	// Predicted is the estimated total candidate cardinality (Lemma 1
	// capture fraction × live collection size).
	Predicted float64
	// NoEstimate is set when no usable distribution exists (empty
	// histogram); Decide then falls back to FIProbe everywhere.
	NoEstimate bool
	// ProbeTables is the number of filter tables the range's Section 4.3
	// case analysis probes (each charged one random bucket-page read).
	ProbeTables int
	// Shards describes each shard's live size and heap geometry.
	Shards []ShardInput
	// Model converts page counts to simulated time.
	Model storage.CostModel
	// Width is the query range width s2 − s1.
	Width float64
	// Eps95 is the 95% half-width of the signature estimate the
	// screen-only plan answers from.
	Eps95 float64
	// SigBytesPerSet is the stored signature footprint per set;
	// screen-only charges reading each candidate's signature sequentially
	// from the resident arrays. 0 prices screening as free.
	SigBytesPerSet int
	// PageBytes converts signature bytes to page counts (0 selects
	// DefaultPageBytes).
	PageBytes int
	// AllowApproximate permits the ScreenOnly plan at all.
	AllowApproximate bool
}

// DefaultPageBytes is the page size assumed when Inputs.PageBytes is zero
// (storage's default page).
const DefaultPageBytes = 4096

// ScreenWidthFactor gates screen-only: the range must be at least 4
// Chernoff half-widths wide before the plan is considered. An estimate
// near the middle of such a range is ≥ 2ε from either boundary, so
// boundary misplacement is confined to the range edges.
const ScreenWidthFactor = 4

// Decide prices the three plans and picks the cheapest admissible one.
// Exact kinds (FIProbe / DirectScan / Mixed) are chosen per shard; the
// approximate ScreenOnly plan is whole-query and only admissible under
// in.AllowApproximate with a sufficiently wide range.
func Decide(in Inputs) Decision {
	if in.NoEstimate || len(in.Shards) == 0 {
		return Decision{Kind: FIProbe, Predicted: in.Predicted}
	}
	totalLive := 0
	for _, s := range in.Shards {
		totalLive += s.Live
	}
	if totalLive <= 0 {
		return Decision{Kind: FIProbe, Predicted: in.Predicted}
	}

	perShard := make([]Kind, len(in.Shards))
	var fiTotal, scanTotal, screenTotal, exactTotal time.Duration
	scans, probes := 0, 0
	for i, s := range in.Shards {
		share := in.Predicted * float64(s.Live) / float64(totalLive)
		pps := s.PagesPerSet
		if pps < 1 {
			pps = 1
		}
		// fi-probe: one random read per probed table plus one per candidate,
		// and sequential follow-on pages for multi-page sets.
		fi := in.Model.Time(int64(share*(pps-1)), int64(share)+int64(in.ProbeTables))
		// direct-scan: the whole heap, sequentially. No bucket probes.
		scan := in.Model.Time(s.ScanPages, 0)
		// screen-only: bucket probes plus the candidates' signatures, read
		// sequentially from the resident signature arrays — a small term
		// that keeps the plan comparison honest without data-page fetches.
		var sigPages int64
		if in.SigBytesPerSet > 0 {
			page := in.PageBytes
			if page <= 0 {
				page = DefaultPageBytes
			}
			sigPages = int64(share*float64(in.SigBytesPerSet)) / int64(page)
		}
		screen := in.Model.Time(sigPages, int64(in.ProbeTables))
		fiTotal += fi
		scanTotal += scan
		screenTotal += screen
		if scan < fi {
			perShard[i] = DirectScan
			exactTotal += scan
			scans++
		} else {
			perShard[i] = FIProbe
			exactTotal += fi
			probes++
		}
	}
	costs := Costs{FIProbe: fiTotal, DirectScan: scanTotal, ScreenOnly: screenTotal}

	if in.AllowApproximate && in.Eps95 > 0 && in.Width >= ScreenWidthFactor*in.Eps95 && screenTotal < exactTotal {
		return Decision{Kind: ScreenOnly, Predicted: in.Predicted, Costs: costs}
	}

	kind := Mixed
	switch {
	case scans == 0:
		kind = FIProbe
	case probes == 0:
		kind = DirectScan
	}
	return Decision{Kind: kind, PerShard: perShard, Predicted: in.Predicted, Costs: costs}
}
