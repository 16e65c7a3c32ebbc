// Public surface of adaptive re-tuning: manual Retune, the AutoTune
// background loop, and tuner-state introspection. The mechanics —
// drift sketching, plan rebuild, hot-swap — live in internal/tuner and
// internal/engine; see DESIGN.md "Adaptive re-tuning".
package ssr

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/tuner"
)

// TunePolicy configures automatic re-tuning (EnableAutoTune). The zero
// value selects sensible defaults throughout.
type TunePolicy struct {
	// CheckEvery is the background drift-evaluation period (default 30s).
	CheckEvery time.Duration
	// DriftThreshold is the max-CDF-distance between the live similarity
	// sketch and the build-time profile past which a retune triggers, in
	// [0, 1] (0 selects the default 0.15, tuner.DefaultDriftThreshold;
	// EnableAutoTune rejects any other value).
	DriftThreshold float64
	// MinMutations is the hysteresis: no retune until at least this many
	// inserts+deletes accumulated since the plan was last (re)derived
	// (default 512; negative disables the gate).
	MinMutations int
	// MinPairs is the minimum sampled-pair count before the drift sketch
	// is trusted at all (default 256; negative disables the gate).
	MinPairs int
	// Seed drives the sketch's reservoir sampling (default 1). Fixing it
	// makes the drift decisions of a replayed mutation stream
	// reproducible.
	Seed int64
}

// config lowers the policy onto the tracker's knobs with a seeded
// generator — randomness is injected, never package-global.
func (p TunePolicy) config() tuner.Config {
	seed := p.Seed
	if seed == 0 {
		seed = 1
	}
	return tuner.Config{
		DriftThreshold: p.DriftThreshold,
		MinMutations:   p.MinMutations,
		MinPairs:       p.MinPairs,
		Rand:           rand.New(rand.NewSource(seed)),
	}
}

func (p TunePolicy) interval() time.Duration {
	if p.CheckEvery > 0 {
		return p.CheckEvery
	}
	return 30 * time.Second
}

// TuneReport is the outcome of one Retune call or background retune.
type TuneReport struct {
	// Swapped is true when a new plan was derived and hot-swapped in.
	Swapped bool
	// Generation is the plan generation after the call (0 = the build
	// plan, incremented by every swap).
	Generation uint64
	// Drift is the measured max-CDF-distance at decision time (0 when no
	// drift tracker is enabled or its sketch is not yet trustworthy).
	Drift float64
}

// TunerState is a point-in-time snapshot of the adaptive-tuning
// machinery, for monitoring (ssrserver exposes it on GET /stats).
type TunerState struct {
	// Enabled reports whether a drift tracker is installed (EnableAutoTune
	// installs one and starts the background loop, reported by
	// AutoTuning).
	Enabled bool
	// AutoTuning reports whether the background loop is running.
	AutoTuning bool
	// PlanGeneration is the current plan generation (0 = build-time).
	PlanGeneration uint64
	// Mutations counts inserts+deletes since the plan was last derived.
	Mutations uint64
	// SampledPairs is the drift sketch's current live pair count.
	SampledPairs int
	// LastDrift is the most recent drift measurement (0 before any).
	LastDrift float64
	// LastCheck is when that measurement ran (zero before any).
	LastCheck time.Time
	// LastRetune is when the plan last swapped (zero if never).
	LastRetune time.Time
	// Retunes counts completed swaps since this process opened the index.
	Retunes uint64
}

// tuneRuntime is the Index-level half of auto-tuning: the background
// loop's lifecycle and the swap bookkeeping TunerState reports.
type tuneRuntime struct {
	mu         sync.Mutex
	auto       bool
	stop       chan struct{}
	done       chan struct{}
	lastRetune time.Time
	retunes    uint64
}

// noteSwap records a completed hot-swap.
func (tr *tuneRuntime) noteSwap() {
	tr.mu.Lock()
	tr.lastRetune = time.Now()
	tr.retunes++
	tr.mu.Unlock()
}

// Retune rebuilds the Section 5 plan from the live collection and
// hot-swaps it in, without blocking concurrent queries (mutations stall
// only for the brief per-shard capture and swap windows). On a durable
// index a swap is followed by a checkpoint, which is the retune's
// durability commit point: recovery after a crash before the checkpoint
// yields the old plan, after it the new plan. Retune works with or
// without EnableAutoTune and always re-derives the plan, even with no
// measured drift (an unchanged collection re-derives the identical
// plan).
func (ix *Index) Retune() (TuneReport, error) {
	if ix.replica {
		// A follower cannot re-derive the primary's plan (the capture cut
		// is not reproducible from the stream); plan changes arrive by
		// re-bootstrapping when the primary's generation moves.
		return TuneReport{}, fmt.Errorf("ssr: %w (plan changes replicate by re-bootstrap)", ErrReplicaReadOnly)
	}
	res, err := ix.inner.Retune()
	rep := TuneReport{Swapped: res.Swapped, Generation: res.Generation, Drift: res.Drift}
	if err != nil || !res.Swapped {
		return rep, err
	}
	ix.tune.noteSwap()
	if ix.dur != nil && !ix.dur.closed.Load() {
		if err := ix.Checkpoint(); err != nil {
			return rep, fmt.Errorf("ssr: plan swapped but checkpoint failed (a crash now recovers the previous plan): %w", err)
		}
	}
	return rep, nil
}

// EnableAutoTune installs the online drift tracker and starts the
// background loop that evaluates the policy every CheckEvery and
// retunes when it fires. The baseline profile is the current plan's
// similarity distribution; indexes loaded from pre-retune snapshots
// carry none, and the loop stays quiet until a manual Retune establishes
// one. Returns an error if auto-tuning is already enabled or the
// policy's DriftThreshold is outside [0, 1] (tuner.ErrDriftThreshold).
// Close stops the loop (also on non-durable indexes).
func (ix *Index) EnableAutoTune(policy TunePolicy) error {
	if ix.replica {
		return fmt.Errorf("ssr: %w (followers mirror the primary's plan)", ErrReplicaReadOnly)
	}
	ix.tune.mu.Lock()
	defer ix.tune.mu.Unlock()
	if ix.tune.auto {
		return fmt.Errorf("ssr: auto-tuning is already enabled")
	}
	if err := ix.inner.EnableTuning(policy.config()); err != nil {
		return err
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	ix.tune.auto, ix.tune.stop, ix.tune.done = true, stop, done
	go ix.autoTuneLoop(policy.interval(), stop, done)
	return nil
}

// autoTuneLoop is the background half of EnableAutoTune.
func (ix *Index) autoTuneLoop(every time.Duration, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
		}
		res, err := ix.inner.MaybeRetune()
		if err != nil || !res.Swapped {
			// Drift evaluation errors are transient (e.g. a near-empty
			// collection); the next tick re-evaluates. State() keeps
			// reporting the measured drift either way.
			continue
		}
		ix.tune.noteSwap()
		if ix.dur != nil && !ix.dur.closed.Load() {
			// Commit the swap; if the checkpoint fails the plan still
			// serves, and recovery falls back to the previous plan.
			_ = ix.Checkpoint() // background lane; the swap stands and the next checkpoint retries
		}
	}
}

// stopAutoTune halts the background loop (idempotent; safe on indexes
// that never enabled it). The drift tracker stays installed, so a later
// EnableAutoTune resumes from the accumulated sketch.
func (ix *Index) stopAutoTune() {
	ix.tune.mu.Lock()
	stop, done := ix.tune.stop, ix.tune.done
	ix.tune.auto, ix.tune.stop, ix.tune.done = false, nil, nil
	ix.tune.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// TunerState reports the adaptive-tuning machinery's current state.
func (ix *Index) TunerState() TunerState {
	st := TunerState{PlanGeneration: ix.inner.PlanGeneration()}
	ix.tune.mu.Lock()
	st.AutoTuning = ix.tune.auto
	st.LastRetune = ix.tune.lastRetune
	st.Retunes = ix.tune.retunes
	ix.tune.mu.Unlock()
	if tr := ix.inner.Tracker(); tr != nil {
		st.Enabled = true
		ts := tr.State()
		st.Mutations = ts.Mutations
		st.SampledPairs = ts.LivePairs
		st.LastDrift = ts.LastDrift
		st.LastCheck = ts.LastCheck
	}
	return st
}
