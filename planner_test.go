package ssr

import (
	"math"
	"testing"
)

// plannerQueries are element lists drawn from the bookstore vocabulary,
// spanning dense overlap, partial overlap, and disjoint probes.
var plannerQueries = [][]string{
	{"dune", "foundation", "hyperion", "neuromancer"},
	{"dune", "foundation", "hyperion", "snowcrash"},
	{"cookbook", "gardening", "carpentry"},
	{"dune", "cookbook"},
}

var plannerTestRanges = [][2]float64{
	{0.9, 1.0}, {0.75, 0.85}, {0.5, 1.0}, {0.1, 0.9},
}

func requireSamePublicMatches(t *testing.T, label string, got, want []Match) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d matches, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].SID != want[i].SID ||
			math.Float64bits(got[i].Similarity) != math.Float64bits(want[i].Similarity) {
			t.Fatalf("%s: match %d is %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestEnablePlanner pins the public wiring: EnablePlanner switches the
// planner on, exact answers stay byte-identical to a planner-off build,
// and Stats surfaces the chosen plan and cache counters.
func TestEnablePlanner(t *testing.T) {
	opt := durableBuildOpts()
	base, err := Build(bookstore(), opt)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(bookstore(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if ix.PlannerEnabled() {
		t.Fatal("planner on before EnablePlanner")
	}
	ix.EnablePlanner(PlannerPolicy{})
	if !ix.PlannerEnabled() {
		t.Fatal("EnablePlanner did not enable the planner")
	}
	for _, r := range plannerTestRanges {
		for _, q := range plannerQueries {
			want, _, err := base.Query(q, r[0], r[1])
			if err != nil {
				t.Fatal(err)
			}
			got, st, err := ix.Query(q, r[0], r[1])
			if err != nil {
				t.Fatal(err)
			}
			requireSamePublicMatches(t, "cold", got, want)
			if st.PlanChosen == "" || st.PlanChosen == "cached" || st.CacheMisses != 1 {
				t.Fatalf("cold stats: plan=%q misses=%d", st.PlanChosen, st.CacheMisses)
			}
			got, st, err = ix.Query(q, r[0], r[1])
			if err != nil {
				t.Fatal(err)
			}
			requireSamePublicMatches(t, "warm", got, want)
			if st.PlanChosen != "cached" || st.CacheHits != 1 {
				t.Fatalf("warm stats: plan=%q hits=%d", st.PlanChosen, st.CacheHits)
			}
		}
	}
	ix.DisablePlanner()
	if ix.PlannerEnabled() {
		t.Fatal("DisablePlanner left the planner on")
	}
}

// TestPlannerAllowApproximate pins the public approximate gate: the
// screen-only plan runs only under QueryOptions.AllowApproximate, and
// estimates land inside the requested range.
func TestPlannerAllowApproximate(t *testing.T) {
	ix, err := Build(bookstore(), durableBuildOpts())
	if err != nil {
		t.Fatal(err)
	}
	ix.EnablePlanner(PlannerPolicy{ForcePlan: "screen-only"})
	q, lo, hi := plannerQueries[0], 0.5, 1.0
	_, st, err := ix.QueryWithOptions(q, lo, hi, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.PlanChosen == "screen-only" {
		t.Fatal("screen-only ran without AllowApproximate")
	}
	got, st, err := ix.QueryWithOptions(q, lo, hi, QueryOptions{AllowApproximate: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.PlanChosen != "screen-only" {
		t.Fatalf("plan %q, want screen-only", st.PlanChosen)
	}
	for _, m := range got {
		if m.Similarity < lo || m.Similarity > hi {
			t.Fatalf("screen-only estimate %g outside [%g,%g]", m.Similarity, lo, hi)
		}
	}
}

// TestPlannerMutationInvalidation pins the public invalidation story:
// cached results created before Add/Remove are never served after.
func TestPlannerMutationInvalidation(t *testing.T) {
	ix, err := Build(bookstore(), durableBuildOpts())
	if err != nil {
		t.Fatal(err)
	}
	ix.EnablePlanner(PlannerPolicy{})
	q, lo, hi := plannerQueries[0], 0.8, 1.0
	if _, _, err := ix.Query(q, lo, hi); err != nil {
		t.Fatal(err)
	}
	before, st, err := ix.Query(q, lo, hi)
	if err != nil || st.CacheHits != 1 {
		t.Fatalf("warm-up: err=%v hits=%d", err, st.CacheHits)
	}
	sid, err := ix.Add(q...)
	if err != nil {
		t.Fatal(err)
	}
	after, st, err := ix.Query(q, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheHits != 0 {
		t.Fatal("stale cached result served after Add")
	}
	if len(after) != len(before)+1 {
		t.Fatalf("Add not visible through the planner: %d then %d matches", len(before), len(after))
	}
	if err := ix.Remove(sid); err != nil {
		t.Fatal(err)
	}
	final, st, err := ix.Query(q, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheHits != 0 {
		t.Fatal("stale cached result served after Remove")
	}
	requireSamePublicMatches(t, "after remove", final, before)
}

// TestPlannerDurableMixedGenerationRecovery drives the planner through
// the hardest invalidation scenario: a warm cache, a retune, a crash
// with only one shard checkpointed at the new generation. Entries cached
// before the crash must never surface after recovery — the reopened
// index, planner re-enabled, answers byte-identically to its own
// planner-off baseline, cold-missing then warm-hitting its fresh cache.
func TestPlannerDurableMixedGenerationRecovery(t *testing.T) {
	const shards = 3
	dir := t.TempDir()
	ix, err := CreateDurable(dir, bookstore(), durableShardedBuildOpts(shards),
		DurableOptions{Sync: SyncAlways, CheckpointBytes: -1})
	if err != nil {
		t.Fatalf("CreateDurable: %v", err)
	}
	ix.EnablePlanner(PlannerPolicy{})
	applyOps(t, ix, workloadOps(25))
	q, lo, hi := plannerQueries[1], 0.5, 1.0
	// Warm the pre-crash cache so stale entries exist to be discarded.
	if _, _, err := ix.Query(q, lo, hi); err != nil {
		t.Fatal(err)
	}
	if _, st, err := ix.Query(q, lo, hi); err != nil || st.CacheHits != 1 {
		t.Fatalf("pre-crash warm-up: err=%v hits=%d", err, st.CacheHits)
	}
	if _, err := ix.inner.Retune(); err != nil {
		t.Fatalf("retune: %v", err)
	}
	// Checkpoint ONE shard, then crash: recovery sees mixed generations.
	sh := ix.dur.shards[0]
	sh.mu.Lock()
	err = sh.log.Checkpoint()
	sh.mu.Unlock()
	if err != nil {
		t.Fatalf("checkpointing shard 0: %v", err)
	}
	mixedDir := t.TempDir()
	copyDir(t, dir, mixedDir)

	re, err := OpenDurable(mixedDir, DurableOptions{})
	if err != nil {
		t.Fatalf("OpenDurable(mixed): %v", err)
	}
	defer re.Close()
	if re.PlannerEnabled() {
		t.Fatal("planner state leaked through recovery; caches must start empty")
	}
	for _, r := range plannerTestRanges {
		want, _, err := re.Query(q, r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		re.EnablePlanner(PlannerPolicy{})
		got, st, err := re.Query(q, r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		if st.CacheHits != 0 || st.CacheMisses != 1 {
			t.Fatalf("post-recovery cold query hit a cache (hits=%d misses=%d)", st.CacheHits, st.CacheMisses)
		}
		requireSamePublicMatches(t, "post-recovery cold", got, want)
		got, st, err = re.Query(q, r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		if st.PlanChosen != "cached" || st.CacheHits != 1 {
			t.Fatalf("post-recovery warm query: plan=%q hits=%d", st.PlanChosen, st.CacheHits)
		}
		requireSamePublicMatches(t, "post-recovery warm", got, want)
		re.DisablePlanner()
	}
}
