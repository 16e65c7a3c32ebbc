// Adaptive re-tuning: rebuild the Section 5 plan from the live collection
// and hot-swap it without blocking readers.
//
// A retune runs in three phases:
//
//  1. Capture. Shard by shard, under that shard's mutex: copy the shard's
//     live sets, signatures, and tombstone marks (CaptureRebuild) and
//     turn on the mutation journal. From this point every insert/delete
//     applied to the shard is also recorded for replay.
//  2. Rebuild, off-lock. core.Prepare re-estimates the global similarity
//     distribution D_S from the captured live collection in ascending
//     global-sid order with the build-time sampling parameters (same
//     DistSeed discipline — an unchanged collection reproduces the
//     build-time histogram bit-for-bit) and re-runs the optimizer once
//     globally; every shard's core is then rebuilt with the new plan.
//     Queries and mutations proceed concurrently against the old
//     generation the whole time.
//  3. Swap. Take every shard mutex (ascending), replay each shard's
//     journal into its new core (local sids are asserted to land
//     identically), publish the new planView, drop the journals, and
//     unlock (descending). Queries that loaded the old view finish on the
//     old cores — which no mutator touches again — and every query
//     started after the swap sees the new generation.
//
// Retunes serialize on Engine.tmu; queries never block; mutators block
// only for the brief capture and swap windows of their own shard.
package engine

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/minhash"
	"repro/internal/optimize"
	"repro/internal/set"
	"repro/internal/simdist"
	"repro/internal/storage"
	"repro/internal/tuner"
)

// RetuneResult reports the outcome of a Retune/MaybeRetune call.
type RetuneResult struct {
	// Swapped is true when a new plan generation was installed.
	Swapped bool
	// Generation is the current plan generation after the call.
	Generation uint64
	// Drift is the tracker's max-CDF-distance at decision time (0 when
	// no tracker is enabled or the sketch was not yet trustworthy).
	Drift float64
}

// EnableTuning installs an online D_S drift tracker fed by every
// insert/delete. The baseline profile is the current generation's
// distribution when known (built engines, and loaded ones whose image
// carries a baseline); other loaded engines start without one and
// MaybeRetune stays quiet until a forced Retune establishes it.
func (e *Engine) EnableTuning(cfg tuner.Config) error {
	tr, err := tuner.New(cfg)
	if err != nil {
		return err
	}
	tr.SetBaseline(e.loadView().hist)
	e.tracker.Store(tr)
	return nil
}

// Tracker returns the drift tracker (nil until EnableTuning).
func (e *Engine) Tracker() *tuner.Tracker { return e.tracker.Load() }

// PlanGeneration returns the current plan generation (0 = build-time).
func (e *Engine) PlanGeneration() uint64 { return e.loadView().gen }

// TuneState returns the current plan generation and the profile it was
// derived from (nil hist for loaded engines that never retuned). The
// persistence layer writes it into the snapshot header; Join restores it.
func (e *Engine) TuneState() (gen uint64, hist *simdist.Histogram) {
	v := e.loadView()
	return v.gen, v.hist
}

// driftPoints returns the similarity values the drift statistic is
// evaluated at: the plan's equidepth cuts plus its δ split — exactly the
// quantiles the construction depends on.
func driftPoints(p optimize.Plan) []float64 {
	pts := make([]float64, 0, len(p.Cuts)+1)
	pts = append(pts, p.Cuts...)
	pts = append(pts, p.Delta)
	return pts
}

// Retune unconditionally rebuilds the plan from the live collection and
// swaps it in (manual tuning, tests, and the establish-a-baseline path
// for loaded engines).
func (e *Engine) Retune() (RetuneResult, error) { return e.retune(true) }

// MaybeRetune retunes only when the drift tracker's decision rule fires:
// trustworthy sketch, drift past threshold, hysteresis satisfied. With no
// tracker enabled it is a no-op.
func (e *Engine) MaybeRetune() (RetuneResult, error) { return e.retune(false) }

// capture is one shard's phase-1 state.
type rebuildCapture struct {
	sets  []set.Set
	sigs  []minhash.Signature
	tombs []bool
	tg    []uint32
}

func (e *Engine) retune(force bool) (RetuneResult, error) {
	e.tmu.Lock()
	defer e.tmu.Unlock()

	v := e.loadView()
	res := RetuneResult{Generation: v.gen}
	tr := e.tracker.Load()
	points := driftPoints(v.cores[0].Plan())
	if force {
		if tr != nil {
			if d, ok := tr.Drift(points); ok {
				res.Drift = d
			}
		}
	} else {
		if tr == nil {
			return res, nil
		}
		drift, retune := tr.ShouldRetune(points)
		res.Drift = drift
		if !retune {
			return res, nil
		}
	}

	// Phase 1: capture every shard and open its journal.
	caps := make([]rebuildCapture, len(e.shards))
	for si, sh := range e.shards {
		sh.mu.Lock()
		caps[si].sets, caps[si].sigs, caps[si].tombs = v.cores[si].CaptureRebuild()
		sh.journalOn = true
		sh.journal = nil
		caps[si].tg = append([]uint32(nil), sh.toGlobal...)
		sh.mu.Unlock()
	}

	// Phase 2a: re-profile D_S and re-plan with one core.Prepare over the
	// captured live collection in ascending global-sid order — the same
	// dense ordering a from-scratch build of the live collection would see,
	// so the same DistSeed yields the same sample pairs. A loaded engine
	// carries no optimizer options (core snapshots persist the plan, not
	// its inputs), so the plan's own echoes stand in: budget, recall
	// target, and capture-model k. Placement and allocation then take the
	// paper defaults (equidepth, greedy).
	liveSets, liveSigs := globalLiveOrder(caps)
	if len(liveSets) < 2 {
		e.closeJournals()
		return res, fmt.Errorf("engine: %d live sets is too few to retune (need at least 2)", len(liveSets))
	}
	opt := v.cores[0].BuildOptions()
	if opt.Plan.Budget == 0 {
		old := v.cores[0].Plan()
		opt.Plan = optimize.Options{
			Budget:       old.Budget,
			RecallTarget: old.RecallTarget,
			SignatureK:   old.K,
		}
	}
	opt.Distribution, opt.PlanOverride = nil, nil
	opt.PrecomputedSignatures = liveSigs
	opt, err := core.Prepare(liveSets, opt)
	if err != nil {
		e.closeJournals()
		return res, fmt.Errorf("engine: re-planning: %w", err)
	}

	// Phase 2b: rebuild every shard's core off-lock with the new plan,
	// preserving local sids via tombstones. Old cores keep serving.
	newCores := make([]*core.Index, len(e.shards))
	for si := range e.shards {
		sopt := opt
		sopt.PrecomputedSignatures = caps[si].sigs
		sopt.Tombstones = caps[si].tombs
		ix, err := core.Build(caps[si].sets, sopt)
		if err != nil {
			e.closeJournals()
			return res, fmt.Errorf("engine: rebuilding shard %d: %w", si, err)
		}
		newCores[si] = ix
	}

	// Phase 3: swap. Under every shard mutex, catch each new core up
	// with the mutations journaled since its capture, then publish.
	for _, sh := range e.shards {
		sh.mu.Lock()
	}
	var replayErr error
replay:
	for si, sh := range e.shards {
		for _, op := range sh.journal {
			if op.del {
				replayErr = newCores[si].Delete(storage.SID(op.local))
			} else {
				var got storage.SID
				got, replayErr = newCores[si].Insert(op.s)
				if replayErr == nil && uint32(got) != op.local {
					replayErr = fmt.Errorf("engine: retune replay landed on local sid %d, journal recorded %d", got, op.local)
				}
			}
			if replayErr != nil {
				replayErr = fmt.Errorf("engine: replaying journal into shard %d: %w", si, replayErr)
				break replay
			}
		}
	}
	if replayErr == nil {
		nv := &planView{gen: v.gen + 1, cores: newCores, hist: opt.Distribution}
		e.view.Store(nv)
		res.Swapped = true
		res.Generation = nv.gen
	}
	for _, sh := range e.shards {
		sh.journalOn = false
		sh.journal = nil
	}
	for i := len(e.shards) - 1; i >= 0; i-- {
		e.shards[i].mu.Unlock()
	}
	if replayErr != nil {
		return res, replayErr
	}
	if tr != nil {
		tr.Rebase(opt.Distribution)
	}
	return res, nil
}

// closeJournals turns journaling off on every shard and drops any
// recorded ops — the abort path of a failed retune.
func (e *Engine) closeJournals() {
	for _, sh := range e.shards {
		sh.mu.Lock()
		sh.journalOn = false
		sh.journal = nil
		sh.mu.Unlock()
	}
}

// globalLiveOrder flattens per-shard captures into the live collection in
// ascending global-sid order (dense — exactly the ordering ssr.Build
// would see for the same collection).
func globalLiveOrder(caps []rebuildCapture) ([]set.Set, []minhash.Signature) {
	type entry struct {
		g   uint32
		s   set.Set
		sig minhash.Signature
	}
	var entries []entry
	for _, c := range caps {
		for i := range c.sets {
			if !c.tombs[i] {
				entries = append(entries, entry{g: c.tg[i], s: c.sets[i], sig: c.sigs[i]})
			}
		}
	}
	sort.Slice(entries, func(a, b int) bool { return entries[a].g < entries[b].g })
	sets := make([]set.Set, len(entries))
	sigs := make([]minhash.Signature, len(entries))
	for i, en := range entries {
		sets[i] = en.s
		sigs[i] = en.sig
	}
	return sets, sigs
}
