package ssr

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/tuner"
)

// driftFlood inserts n near-duplicate sets — a high-similarity mode the
// bookstore build-time profile lacks, so the drift sketch must move.
func driftFlood(t *testing.T, ix *Index, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := ix.Add("dune", "foundation", "hyperion", "neuromancer", fmt.Sprintf("flood-%d", i%3)); err != nil {
			t.Fatalf("flood insert %d: %v", i, err)
		}
	}
}

// waitForGeneration polls until the plan generation reaches want.
func waitForGeneration(t *testing.T, ix *Index, want uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if ix.TunerState().PlanGeneration >= want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := ix.TunerState()
	t.Fatalf("plan generation stuck at %d (want %d); drift %.3f, mutations %d, pairs %d",
		st.PlanGeneration, want, st.LastDrift, st.Mutations, st.SampledPairs)
}

// TestManualRetune drives the public Retune on a non-durable index and
// checks the generation and bookkeeping surfaces.
func TestManualRetune(t *testing.T) {
	ix, err := Build(bookstore(), durableBuildOpts())
	if err != nil {
		t.Fatal(err)
	}
	driftFlood(t, ix, 40)
	rep, err := ix.Retune()
	if err != nil {
		t.Fatalf("Retune: %v", err)
	}
	if !rep.Swapped || rep.Generation != 1 {
		t.Fatalf("Retune report %+v, want swapped generation 1", rep)
	}
	st := ix.TunerState()
	if st.Enabled || st.AutoTuning {
		t.Fatalf("tuner state %+v claims tracking without EnableAutoTune", st)
	}
	if st.PlanGeneration != 1 || st.Retunes != 1 || st.LastRetune.IsZero() {
		t.Fatalf("tuner state %+v, want generation 1 with one recorded retune", st)
	}
	_, qs, err := ix.Query([]string{"dune", "foundation"}, 0.2, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if qs.PlanGeneration != 1 {
		t.Fatalf("query stats report generation %d, want 1", qs.PlanGeneration)
	}
}

// TestAutoTuneLifecycle enables auto-tuning on a built index, drifts the
// collection, and waits for the background loop to hot-swap — then
// checks Close stops the loop.
func TestAutoTuneLifecycle(t *testing.T) {
	ix, err := Build(bookstore(), durableBuildOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if err := ix.EnableAutoTune(TunePolicy{CheckEvery: 5 * time.Millisecond, MinMutations: 32, MinPairs: 16, Seed: 11}); err != nil {
		t.Fatal(err)
	}
	st := ix.TunerState()
	if !st.Enabled || !st.AutoTuning {
		t.Fatalf("tuner state %+v, want enabled and auto-tuning", st)
	}
	if err := ix.EnableAutoTune(TunePolicy{}); err == nil {
		t.Fatal("second EnableAutoTune succeeded")
	}

	driftFlood(t, ix, 300)
	waitForGeneration(t, ix, 1)
	st = ix.TunerState()
	if st.Retunes < 1 || st.LastRetune.IsZero() {
		t.Fatalf("tuner state %+v records no retune after a swap", st)
	}
	if st.LastDrift <= 0 {
		t.Fatalf("tuner state %+v records no drift measurement", st)
	}

	closeWithin(t, "autoTuneLoop", ix.Close)
	if ix.TunerState().AutoTuning {
		t.Fatal("auto-tune loop still reported running after Close")
	}
	if err := ix.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// closeWithin calls close and fails the test if it has not returned in
// 10 s, naming the background loop that ignored its stop signal — instead
// of hanging the package to the go test timeout.
func closeWithin(t *testing.T, loop string, close func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("Close did not return in 10 s: %s ignored its stop signal", loop)
	}
}

// TestAutoTuneRejectsDriftThreshold checks that EnableAutoTune refuses a
// drift threshold the drift can never cross (NaN, above 1) or always
// crosses (negative), and leaves the index without a tuner.
func TestAutoTuneRejectsDriftThreshold(t *testing.T) {
	ix, err := Build(bookstore(), durableBuildOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	for _, th := range []float64{math.NaN(), math.Inf(1), -1, 1.5} {
		if err := ix.EnableAutoTune(TunePolicy{DriftThreshold: th}); !errors.Is(err, tuner.ErrDriftThreshold) {
			t.Errorf("threshold %g: err %v, want ErrDriftThreshold", th, err)
		}
		if st := ix.TunerState(); st.Enabled || st.AutoTuning {
			t.Fatalf("threshold %g: tuner state %+v after a rejected enable", th, st)
		}
	}
}

// TestAutoTuneDurable runs the loop on a durable sharded index: the
// background swap must checkpoint, so a reopen recovers the retuned
// plan.
func TestAutoTuneDurable(t *testing.T) {
	dir := t.TempDir()
	ix, err := CreateDurable(dir, bookstore(), durableShardedBuildOpts(3), DurableOptions{Sync: SyncNever, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.EnableAutoTune(TunePolicy{CheckEvery: 5 * time.Millisecond, MinMutations: 32, MinPairs: 16, Seed: 11}); err != nil {
		t.Fatal(err)
	}
	driftFlood(t, ix, 300)
	waitForGeneration(t, ix, 1)
	if err := ix.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	gen := ix.TunerState().PlanGeneration

	re, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	defer re.Close()
	if got := re.TunerState().PlanGeneration; got != gen {
		t.Fatalf("reopened at plan generation %d, want %d", got, gen)
	}
	assertSameIndex(t, re, ix)
}
