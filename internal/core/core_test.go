package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/minhash"
	"repro/internal/optimize"
	"repro/internal/set"
	"repro/internal/workload"
)

// buildSmall builds a small but realistic index for integration tests.
func buildSmall(t *testing.T, n, budget int) (*Index, []set.Set) {
	t.Helper()
	sets, err := workload.Generate(workload.Set1Params(n))
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	ix, err := Build(sets, Options{
		Embed: minhash.Options{K: 64, Bits: 8, Seed: 42},
		Plan:  optimize.Options{Budget: budget, RecallTarget: 0.9},
	})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return ix, sets
}

// smallOptions is a cheap build configuration for tests that exercise
// build inputs rather than retrieval quality.
func smallOptions() Options {
	return Options{
		Embed:    minhash.Options{K: 32, Bits: 6, Seed: 3},
		Plan:     optimize.Options{Budget: 30, RecallTarget: 0.9},
		DistSeed: 5,
	}
}

func exactAnswer(sets []set.Set, q set.Set, lo, hi float64) map[uint32]struct{} {
	out := make(map[uint32]struct{})
	for i, s := range sets {
		sim := q.Jaccard(s)
		if sim >= lo && sim <= hi {
			out[uint32(i)] = struct{}{}
		}
	}
	return out
}

func TestQueryNoFalsePositives(t *testing.T) {
	ix, sets := buildSmall(t, 500, 60)
	qs, err := workload.Queries(len(sets), workload.QueryParams{Count: 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		matches, _, err := ix.QueryWithOptions(sets[q.SID], q.Lo, q.Hi, QueryOptions{})
		if err != nil {
			t.Fatalf("query: %v", err)
		}
		truth := exactAnswer(sets, sets[q.SID], q.Lo, q.Hi)
		for _, m := range matches {
			if _, ok := truth[m.SID]; !ok {
				t.Errorf("false positive sid %d sim %g for range [%g,%g]", m.SID, m.Similarity, q.Lo, q.Hi)
			}
			if m.Similarity < q.Lo || m.Similarity > q.Hi {
				t.Errorf("similarity %g outside [%g,%g]", m.Similarity, q.Lo, q.Hi)
			}
		}
	}
}

func TestQueryRecallHighSimilarity(t *testing.T) {
	ix, sets := buildSmall(t, 800, 80)
	// High-similarity queries: the regime the index is strongest in.
	totTruth, totHit := 0, 0
	for sid := 0; sid < 100; sid++ {
		matches, _, err := ix.QueryWithOptions(sets[sid], 0.8, 1.0, QueryOptions{})
		if err != nil {
			t.Fatalf("query: %v", err)
		}
		truth := exactAnswer(sets, sets[sid], 0.8, 1.0)
		totTruth += len(truth)
		totHit += len(matches)
	}
	if totTruth == 0 {
		t.Fatal("workload produced no high-similarity pairs; generator regression")
	}
	recall := float64(totHit) / float64(totTruth)
	if recall < 0.8 {
		t.Errorf("aggregate recall %.3f too low (hits %d / truth %d)", recall, totHit, totTruth)
	}
}

func TestQuerySelfRetrieval(t *testing.T) {
	ix, sets := buildSmall(t, 300, 40)
	missed := 0
	for sid := 0; sid < 50; sid++ {
		matches, _, err := ix.QueryWithOptions(sets[sid], 0.95, 1.0, QueryOptions{})
		if err != nil {
			t.Fatalf("query: %v", err)
		}
		found := false
		for _, m := range matches {
			if int(m.SID) == sid {
				found = true
				if m.Similarity != 1 {
					t.Errorf("self similarity = %g, want 1", m.Similarity)
				}
			}
		}
		if !found {
			missed++
		}
	}
	// Identical vectors collide in every table with probability 1, so a
	// query set that is in the collection must always retrieve itself.
	if missed > 0 {
		t.Errorf("%d/50 self-retrievals missed; identical vectors must always collide", missed)
	}
}

func TestQueryStatsAccounting(t *testing.T) {
	ix, sets := buildSmall(t, 300, 40)
	_, stats, err := ix.QueryWithOptions(sets[0], 0.7, 1.0, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Candidates < stats.Results {
		t.Errorf("candidates %d < results %d", stats.Candidates, stats.Results)
	}
	if stats.IndexIO.Rand() == 0 {
		t.Error("no index I/O recorded")
	}
	if stats.Candidates > 0 && stats.FetchIO.Rand() == 0 {
		t.Error("candidates fetched without random I/O")
	}
	if stats.EnclosedLo > 0.7 || stats.EnclosedHi < 1.0 {
		t.Errorf("enclosing points [%g,%g] do not cover [0.7,1]", stats.EnclosedLo, stats.EnclosedHi)
	}
}

func TestLowSimilarityRangeUsesDFIs(t *testing.T) {
	ix, sets := buildSmall(t, 500, 60)
	// A range well below delta must be answered by the DFI combination.
	var stats QueryStats
	_, err := ix.Candidates(sets[0], 0.0, ix.Plan().Delta/2, &stats)
	if err != nil {
		t.Fatalf("candidates: %v", err)
	}
	if stats.EnclosedHi > ix.Plan().Delta+1e-9 {
		t.Errorf("enclosing hi %g beyond delta %g", stats.EnclosedHi, ix.Plan().Delta)
	}
}

func TestInsertThenQuery(t *testing.T) {
	ix, sets := buildSmall(t, 300, 40)
	// Insert a near-duplicate of set 0 and expect to find it at high sim.
	elems := append([]set.Elem(nil), sets[0].Elems()...)
	dup := set.New(elems...)
	sid, err := ix.Insert(dup)
	if err != nil {
		t.Fatalf("insert: %v", err)
	}
	matches, _, err := ix.QueryWithOptions(sets[0], 0.99, 1.0, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range matches {
		if m.SID == sid {
			found = true
		}
	}
	if !found {
		t.Errorf("inserted duplicate (sid %d) not retrieved at similarity 1", sid)
	}
	if ix.Len() != 301 {
		t.Errorf("Len = %d, want 301", ix.Len())
	}
}

func TestEstimateSimilarity(t *testing.T) {
	ix, sets := buildSmall(t, 200, 40)
	est, eps, err := ix.EstimateSimilarity(sets[3], 3)
	if err != nil {
		t.Fatal(err)
	}
	if est != 1 {
		t.Errorf("self estimate = %g, want 1", est)
	}
	if eps <= 0 || eps >= 1 {
		t.Errorf("eps = %g out of (0,1)", eps)
	}
	// A random other set should estimate near its true similarity.
	truth := sets[3].Jaccard(sets[77])
	est2, _, err := ix.EstimateSimilarity(sets[3], 77)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est2-truth) > 0.35 {
		t.Errorf("estimate %g too far from truth %g", est2, truth)
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(nil, Options{}); err == nil {
		t.Error("empty collection accepted")
	}
	sets, _ := workload.Generate(workload.Set1Params(10))
	if _, err := Build(sets, Options{Plan: optimize.Options{Budget: 0}}); err == nil {
		t.Error("zero budget accepted")
	}
}

func TestQueryInvalidRange(t *testing.T) {
	ix, sets := buildSmall(t, 100, 30)
	if _, _, err := ix.QueryWithOptions(sets[0], 0.9, 0.1, QueryOptions{}); err == nil {
		t.Error("inverted range accepted")
	}
}

// TestPrecomputedSignatureValidation pins the fail-fast contract: a
// malformed signature slice or tombstone mark must fail Build with an
// error BEFORE any side effect (store appends, filter population) — never
// panic mid-sign.
func TestPrecomputedSignatureValidation(t *testing.T) {
	sets, err := workload.Generate(workload.Set1Params(120))
	if err != nil {
		t.Fatal(err)
	}
	base, err := Build(sets, smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	goodSigs := make([]minhash.Signature, len(sets))
	for i, s := range sets {
		goodSigs[i] = base.Embedder().Sign(s)
	}
	plan := base.Plan()
	tombs := make([]bool, len(sets))
	tombs[3] = true

	cases := []struct {
		name    string
		mutate  func(o *Options)
		wantSub string
	}{
		{
			name: "wrong signature count",
			mutate: func(o *Options) {
				o.PrecomputedSignatures = goodSigs[:len(goodSigs)-1]
			},
			wantSub: "precomputed signatures",
		},
		{
			name: "wrong signature length",
			mutate: func(o *Options) {
				sigs := make([]minhash.Signature, len(goodSigs))
				copy(sigs, goodSigs)
				sigs[2] = sigs[2][:5]
				o.PrecomputedSignatures = sigs
			},
			wantSub: "coordinates",
		},
		{
			name: "wrong tombstone count",
			mutate: func(o *Options) {
				o.PlanOverride = &plan
				o.PrecomputedSignatures = goodSigs
				o.Tombstones = tombs[1:]
			},
			wantSub: "tombstone marks",
		},
		{
			name: "tombstones without signatures",
			mutate: func(o *Options) {
				o.PlanOverride = &plan
				o.Tombstones = tombs
			},
			wantSub: "requires PlanOverride",
		},
		{
			name: "tombstoned position carries a signature",
			mutate: func(o *Options) {
				o.PlanOverride = &plan
				o.PrecomputedSignatures = goodSigs
				o.Tombstones = tombs
			},
			wantSub: "tombstoned position 3",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Build panicked instead of returning an error: %v", r)
				}
			}()
			o := smallOptions()
			tc.mutate(&o)
			if _, err := Build(sets, o); err == nil {
				t.Fatal("Build accepted malformed signatures")
			} else if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}

	// The well-formed slice must still build, identically to signing fresh.
	o := smallOptions()
	o.PrecomputedSignatures = goodSigs
	ix, err := Build(sets, o)
	if err != nil {
		t.Fatalf("well-formed precomputed signatures rejected: %v", err)
	}
	m1, _, err := base.QueryWithOptions(sets[0], 0.3, 1.0, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m2, _, err := ix.QueryWithOptions(sets[0], 0.3, 1.0, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(m1) != len(m2) {
		t.Fatalf("precomputed build answers differ: %d vs %d matches", len(m1), len(m2))
	}
}
