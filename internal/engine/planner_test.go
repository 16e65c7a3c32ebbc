package engine

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/workload"
)

var plannerRanges = [][2]float64{
	{0.9, 1.0},
	{0.75, 0.85},
	{0.5, 1.0},
	{0.1, 0.9},
}

func requireSameMatches(t *testing.T, label string, got, want []core.Match) {
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

// TestPlannerByteIdentity is the planner acceptance pin: with the planner
// enabled, exact answers (cold and warm, across shard counts) are
// byte-identical to the default pipeline, warm repeats hit the result
// cache, and the stats surface the chosen plan.
func TestPlannerByteIdentity(t *testing.T) {
	for _, shards := range []int{1, 4, 8} {
		e, sets := buildFixture(t, 400, shards)
		qs, err := workload.Queries(len(sets), workload.QueryParams{Count: 10, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		type baselineAnswer struct {
			matches []core.Match
			lo, hi  float64
		}
		var baseline []baselineAnswer
		for _, r := range plannerRanges {
			for _, q := range qs[:5] {
				m, _, err := e.QueryWithOptions(sets[q.SID], r[0], r[1], core.QueryOptions{})
				if err != nil {
					t.Fatalf("shards=%d baseline: %v", shards, err)
				}
				baseline = append(baseline, baselineAnswer{m, r[0], r[1]})
			}
		}
		e.EnablePlanner(PlannerPolicy{})
		if !e.PlannerEnabled() {
			t.Fatalf("shards=%d: planner not enabled", shards)
		}
		i := 0
		for _, r := range plannerRanges {
			for _, q := range qs[:5] {
				m, st, err := e.QueryWithOptions(sets[q.SID], r[0], r[1], core.QueryOptions{})
				if err != nil {
					t.Fatalf("shards=%d cold: %v", shards, err)
				}
				requireSameMatches(t, "cold", m, baseline[i].matches)
				if st.Plan == "" || st.Plan == "cached" || st.CacheHits != 0 || st.CacheMisses != 1 {
					t.Fatalf("shards=%d cold stats: plan=%q hits=%d misses=%d",
						shards, st.Plan, st.CacheHits, st.CacheMisses)
				}
				m2, st2, err := e.QueryWithOptions(sets[q.SID], r[0], r[1], core.QueryOptions{})
				if err != nil {
					t.Fatalf("shards=%d warm: %v", shards, err)
				}
				requireSameMatches(t, "warm", m2, baseline[i].matches)
				if st2.Plan != "cached" || st2.CacheHits != 1 {
					t.Fatalf("shards=%d warm stats: plan=%q hits=%d", shards, st2.Plan, st2.CacheHits)
				}
				i++
			}
		}
		e.DisablePlanner()
		if e.PlannerEnabled() {
			t.Fatalf("shards=%d: planner still enabled after disable", shards)
		}
	}
}

// TestPlannerForceDirectScan pins the non-default exact plan end to end:
// a forced direct-scan answers byte-identically to fi-probe on a sharded
// engine.
func TestPlannerForceDirectScan(t *testing.T) {
	e, sets := buildFixture(t, 400, 4)
	// Every pair of partition points is an input too, so each Section 4.3
	// case reaches the direct scan.
	p := e.Plan()
	points := append(append([]float64{0}, p.Cuts...), 1)
	ranges := append([][2]float64(nil), plannerRanges...)
	cases := map[string]int{}
	for i, lo := range points {
		for _, hi := range points[i+1:] {
			ranges = append(ranges, [2]float64{lo, hi})
			c, ok := p.Combination(p.Enclose(lo, hi))
			switch {
			case !ok:
			case c.PosB >= 0:
				cases["mixed"]++
			case p.FIs[c.PosA].Kind == filter.Dissimilar:
				cases["DFI-only"]++
			default:
				cases["SFI-only"]++
			}
		}
	}
	for _, name := range []string{"DFI-only", "SFI-only", "mixed"} {
		if cases[name] == 0 {
			t.Errorf("no %s range among the partition-point pairs %v", name, points)
		}
	}
	for _, r := range ranges {
		for _, qi := range []int{0, len(sets) / 2, len(sets) - 1} {
			want, _, err := e.QueryWithOptions(sets[qi], r[0], r[1], core.QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			e.EnablePlanner(PlannerPolicy{ForcePlan: "direct-scan", ResultCacheEntries: -1})
			got, st, err := e.QueryWithOptions(sets[qi], r[0], r[1], core.QueryOptions{})
			e.DisablePlanner()
			if err != nil {
				t.Fatalf("range=%v sid=%d: %v", r, qi, err)
			}
			if st.Plan != "direct-scan" {
				t.Fatalf("range=%v sid=%d: plan %q, want direct-scan", r, qi, st.Plan)
			}
			requireSameMatches(t, "direct-scan", got, want)
		}
	}
}

// TestScreenOnlyRequiresOptIn pins the approximate gate: without
// AllowApproximate a forced screen-only falls back to the exact pipeline;
// with it, the plan label reports screen-only and the result is never
// cached.
func TestScreenOnlyRequiresOptIn(t *testing.T) {
	e, sets := buildFixture(t, 300, 2)
	q, lo, hi := sets[0], 0.5, 1.0
	want, _, err := e.QueryWithOptions(q, lo, hi, core.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e.EnablePlanner(PlannerPolicy{ForcePlan: "screen-only"})
	got, st, err := e.QueryWithOptions(q, lo, hi, core.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Plan == "screen-only" {
		t.Fatal("screen-only ran without AllowApproximate")
	}
	requireSameMatches(t, "fallback", got, want)

	opt := core.QueryOptions{AllowApproximate: true}
	approx, st, err := e.QueryWithOptions(q, lo, hi, opt)
	if err != nil {
		t.Fatal(err)
	}
	if st.Plan != "screen-only" {
		t.Fatalf("plan %q, want screen-only", st.Plan)
	}
	for _, m := range approx {
		if m.Similarity < lo || m.Similarity > hi {
			t.Fatalf("screen-only estimate %g outside [%g,%g]", m.Similarity, lo, hi)
		}
	}
	// Approximate answers must never warm the result cache.
	_, st, err = e.QueryWithOptions(q, lo, hi, opt)
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheHits != 0 || st.Plan != "screen-only" {
		t.Fatalf("repeat approximate query: plan=%q hits=%d; screen-only must not cache", st.Plan, st.CacheHits)
	}
}

// TestPlannerInvalidationOnMutation pins the result-cache token: an entry
// created before an insert or delete is never served after it.
func TestPlannerInvalidationOnMutation(t *testing.T) {
	e, sets := buildFixture(t, 300, 4)
	e.EnablePlanner(PlannerPolicy{})
	q, lo, hi := sets[7], 0.8, 1.0
	warm := func() []core.Match {
		m, _, err := e.QueryWithOptions(q, lo, hi, core.QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		m, st, err := e.QueryWithOptions(q, lo, hi, core.QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if st.CacheHits != 1 {
			t.Fatalf("warm-up did not hit the cache (hits=%d)", st.CacheHits)
		}
		return m
	}
	before := warm()
	// Insert a duplicate of the query set: it must appear at similarity 1.
	g, err := e.Insert(q)
	if err != nil {
		t.Fatal(err)
	}
	after, st, err := e.QueryWithOptions(q, lo, hi, core.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheHits != 0 {
		t.Fatal("stale cached result served after an insert")
	}
	if len(after) != len(before)+1 {
		t.Fatalf("insert not visible: %d matches before, %d after", len(before), len(after))
	}
	if err := e.Delete(g); err != nil {
		t.Fatal(err)
	}
	final, st, err := e.QueryWithOptions(q, lo, hi, core.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheHits != 0 {
		t.Fatal("stale cached result served after a delete")
	}
	requireSameMatches(t, "after delete", final, before)
}

// TestPlannerInvalidationOnRetune pins the generation half of the token:
// warm entries die with the plan generation, and post-retune answers
// still match a planner-off baseline.
func TestPlannerInvalidationOnRetune(t *testing.T) {
	e, sets := buildFixture(t, 300, 2)
	q, lo, hi := sets[3], 0.5, 1.0
	e.EnablePlanner(PlannerPolicy{})
	if _, _, err := e.QueryWithOptions(q, lo, hi, core.QueryOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, st, err := e.QueryWithOptions(q, lo, hi, core.QueryOptions{}); err != nil || st.CacheHits != 1 {
		t.Fatalf("warm-up: err=%v hits=%d", err, st.CacheHits)
	}
	if _, err := e.Retune(); err != nil {
		t.Fatal(err)
	}
	got, st, err := e.QueryWithOptions(q, lo, hi, core.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheHits != 0 {
		t.Fatal("pre-retune cache entry served after the generation bump")
	}
	e.DisablePlanner()
	want, _, err := e.QueryWithOptions(q, lo, hi, core.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	requireSameMatches(t, "post-retune", got, want)
}

// TestPlannerBatch pins planned batches of concurrent single queries:
// planner-on batches (cold and warm) return byte-identical results to
// planner-off batches, cold entries miss the result cache, and warm
// entries are each served from it with one hit.
func TestPlannerBatch(t *testing.T) {
	e, sets := buildFixture(t, 300, 4)
	batch := workloadBatch(t, sets, 16, 9)
	baseline := runBatch(e, batch, core.QueryOptions{})
	e.EnablePlanner(PlannerPolicy{})
	for pass, wantHits := range []int{0, 1} {
		got := runBatch(e, batch, core.QueryOptions{})
		for i := range got {
			if got[i].err != nil || baseline[i].err != nil {
				t.Fatalf("pass %d entry %d: errs %v / %v", pass, i, got[i].err, baseline[i].err)
			}
			requireSameMatches(t, "batch", got[i].matches, baseline[i].matches)
			if got[i].stats.CacheHits != wantHits {
				t.Fatalf("pass %d entry %d: hits=%d want %d", pass, i, got[i].stats.CacheHits, wantHits)
			}
			if wantHits == 1 && got[i].stats.Plan != "cached" {
				t.Fatalf("pass %d entry %d: plan %q, want cached", pass, i, got[i].stats.Plan)
			}
		}
	}
}
