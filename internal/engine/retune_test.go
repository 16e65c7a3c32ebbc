package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/minhash"
	"repro/internal/optimize"
	"repro/internal/set"
	"repro/internal/tuner"
	"repro/internal/workload"
)

// saveBytes snapshots the engine through the persistence path.
func saveBytes(t *testing.T, e *Engine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatalf("save: %v", err)
	}
	return buf.Bytes()
}

// TestRetuneNoOpIsByteIdentical pins the no-op invariant: re-tuning with
// an unchanged collection re-derives the identical histogram (same
// DistSeed, same dense ordering), hence the identical plan, hence
// byte-identical snapshots and query answers — at 1 shard and at 4.
func TestRetuneNoOpIsByteIdentical(t *testing.T) {
	for _, shards := range []int{1, 4} {
		e, sets := buildFixture(t, 400, shards)
		before := saveBytes(t, e)
		q := sets[3]
		mBefore, stBefore, err := e.QueryWithOptions(q, 0.2, 1.0, core.QueryOptions{})
		if err != nil {
			t.Fatalf("shards=%d query before: %v", shards, err)
		}
		if stBefore.PlanGeneration != 0 {
			t.Fatalf("shards=%d fresh build reports generation %d, want 0", shards, stBefore.PlanGeneration)
		}

		res, err := e.Retune()
		if err != nil {
			t.Fatalf("shards=%d retune: %v", shards, err)
		}
		if !res.Swapped || res.Generation != 1 {
			t.Fatalf("shards=%d retune result %+v, want swapped generation 1", shards, res)
		}
		if got := e.PlanGeneration(); got != 1 {
			t.Fatalf("shards=%d PlanGeneration() = %d, want 1", shards, got)
		}

		after := saveBytes(t, e)
		if !bytes.Equal(before, after) {
			t.Fatalf("shards=%d: no-op retune changed the snapshot (%d vs %d bytes)", shards, len(before), len(after))
		}
		mAfter, stAfter, err := e.QueryWithOptions(q, 0.2, 1.0, core.QueryOptions{})
		if err != nil {
			t.Fatalf("shards=%d query after: %v", shards, err)
		}
		if stAfter.PlanGeneration != 1 {
			t.Fatalf("shards=%d post-retune query reports generation %d, want 1", shards, stAfter.PlanGeneration)
		}
		ka, kb := matchKeys(mBefore), matchKeys(mAfter)
		if len(ka) != len(kb) {
			t.Fatalf("shards=%d: result count changed %d → %d", shards, len(ka), len(kb))
		}
		for i := range ka {
			if ka[i] != kb[i] {
				t.Fatalf("shards=%d: result %d changed %s → %s", shards, i, ka[i], kb[i])
			}
		}
	}
}

// TestRetuneEqualsFreshBuild mutates the collection (inserts + deletes),
// retunes, and checks the swapped engine answers exactly like a
// from-scratch build over the final live collection.
func TestRetuneEqualsFreshBuild(t *testing.T) {
	for _, shards := range []int{1, 4} {
		e, sets := buildFixture(t, 300, shards)
		extra, err := workload.Generate(workload.Set2Params(200))
		if err != nil {
			t.Fatalf("generate extra: %v", err)
		}
		for _, s := range extra {
			if _, err := e.Insert(s); err != nil {
				t.Fatalf("insert: %v", err)
			}
		}
		for g := uint32(0); g < 60; g += 3 {
			if err := e.Delete(g); err != nil {
				t.Fatalf("delete %d: %v", g, err)
			}
		}

		res, err := e.Retune()
		if err != nil {
			t.Fatalf("shards=%d retune: %v", shards, err)
		}
		if !res.Swapped {
			t.Fatalf("shards=%d: forced retune did not swap", shards)
		}

		// Fresh build over the final live collection, in global-sid order
		// — the same dense ordering the retune re-estimated D_S from.
		fresh, err := core.Build(e.Sets(), coreOptions())
		if err != nil {
			t.Fatalf("fresh build: %v", err)
		}

		for qi, q := range []set.Set{sets[0], sets[7], extra[3], extra[11]} {
			for _, rng := range [][2]float64{{0.1, 1.0}, {0.5, 1.0}, {0.05, 0.4}} {
				got, _, err := e.QueryWithOptions(q, rng[0], rng[1], core.QueryOptions{})
				if err != nil {
					t.Fatalf("retuned query: %v", err)
				}
				want, _, err := fresh.QueryWithOptions(q, rng[0], rng[1], core.QueryOptions{})
				if err != nil {
					t.Fatalf("fresh query: %v", err)
				}
				// The retuned engine reports global sids over a sparse
				// space; the fresh build is densely renumbered. Compare by
				// the matched sets' similarities (the sid spaces differ),
				// which identify the answers on this workload.
				if len(got) != len(want) {
					t.Fatalf("shards=%d q%d range %v: %d matches, fresh build finds %d",
						shards, qi, rng, len(got), len(want))
				}
				for i := range got {
					if got[i].Similarity != want[i].Similarity {
						t.Fatalf("shards=%d q%d range %v match %d: similarity %v vs fresh %v",
							shards, qi, rng, i, got[i].Similarity, want[i].Similarity)
					}
				}
			}
		}
	}
}

// TestRetuneSwapUnderLoad is the -race stress test of the hot-swap
// protocol: concurrent inserts, deletes, and queries run while retunes
// repeatedly swap the plan. Every query must come back whole from exactly
// one generation, and the final state must answer like a from-scratch
// build on the final collection.
func TestRetuneSwapUnderLoad(t *testing.T) {
	e, sets := buildFixture(t, 300, 4)
	extra, err := workload.Generate(workload.Set2Params(400))
	if err != nil {
		t.Fatalf("generate extra: %v", err)
	}
	if err := e.EnableTuning(tuner.Config{
		Rand:         rand.New(rand.NewSource(5)),
		MinMutations: 50,
		MinPairs:     32,
	}); err != nil {
		t.Fatalf("enable tuning: %v", err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errCh := make(chan error, 16)

	// Writers: two goroutines inserting disjoint halves, one deleting.
	var inserted sync.Map
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(extra); i += 2 {
				g, err := e.Insert(extra[i])
				if err != nil {
					errCh <- err
					return
				}
				inserted.Store(g, true)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for g := uint32(0); g < 90; g += 3 {
			if err := e.Delete(g); err != nil {
				errCh <- err
				return
			}
		}
	}()

	// Readers: hammer queries across the swaps; each must be internally
	// consistent (a whole answer from one generation).
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := sets[(r*31+i)%len(sets)]
				_, st, err := e.QueryWithOptions(q, 0.2, 1.0, core.QueryOptions{})
				if err != nil {
					errCh <- err
					return
				}
				if st.PlanGeneration > 3 {
					errCh <- fmt.Errorf("query answered from generation %d, only 3 retunes ran", st.PlanGeneration)
					return
				}
			}
		}(r)
	}

	// Tuner: force swaps while the load runs.
	swaps := 0
	retuned := make(chan error, 1)
	go func() {
		for i := 0; i < 3; i++ {
			res, err := e.Retune()
			if err != nil {
				retuned <- fmt.Errorf("retune %d: %w", i, err)
				return
			}
			if res.Swapped {
				swaps++
			}
		}
		retuned <- nil
	}()
	// The load waits on its own deadline, as TestInsertDeleteNoDeadlock
	// does, so a lock-order deadlock between a swap and a worker fails
	// here in seconds instead of hanging to the go test timeout.
	deadline := time.After(10 * time.Second)
	select {
	case err := <-retuned:
		if err != nil {
			t.Fatal(err)
		}
	case <-deadline:
		t.Fatal("retunes still blocked after 10 s (lock-order deadlock?)")
	}
	close(stop)
	workersDone := make(chan struct{})
	go func() { wg.Wait(); close(workersDone) }()
	select {
	case <-workersDone:
	case <-deadline:
		t.Fatal("workers still blocked after 10 s (lock-order deadlock?)")
	}
	select {
	case err := <-errCh:
		t.Fatalf("background worker: %v", err)
	default:
	}
	if swaps != 3 {
		t.Fatalf("swapped %d times, want 3", swaps)
	}
	if got := e.PlanGeneration(); got != 3 {
		t.Fatalf("final generation %d, want 3", got)
	}

	// Quiesced equality: one more retune, then compare against a fresh
	// build of the final live collection.
	if _, err := e.Retune(); err != nil {
		t.Fatalf("final retune: %v", err)
	}
	fresh, err := core.Build(e.Sets(), coreOptions())
	if err != nil {
		t.Fatalf("fresh build: %v", err)
	}
	for qi, q := range []set.Set{sets[1], sets[50], extra[9]} {
		got, _, err := e.QueryWithOptions(q, 0.3, 1.0, core.QueryOptions{})
		if err != nil {
			t.Fatalf("final query: %v", err)
		}
		want, _, err := fresh.QueryWithOptions(q, 0.3, 1.0, core.QueryOptions{})
		if err != nil {
			t.Fatalf("fresh query: %v", err)
		}
		if len(got) != len(want) {
			t.Fatalf("q%d: %d matches, fresh build finds %d", qi, len(got), len(want))
		}
		for i := range got {
			if got[i].Similarity != want[i].Similarity {
				t.Fatalf("q%d match %d: similarity %v vs fresh %v", qi, i, got[i].Similarity, want[i].Similarity)
			}
		}
	}
}

// mirrorParams is a near-duplicate collection: a small page universe
// visited through ~90% mirrors, so nearly all pairwise mass sits in one
// high-similarity mode — the opposite of the diverse Set1 workload.
func mirrorParams(n int, seed int64) workload.Params {
	return workload.Params{
		N: n, Topics: 4, GlobalPages: 30, TopicPages: 40,
		MeanDepth: 40, DepthSigma: 4, NoisePool: 200, NoiseFrac: 0.05,
		ZipfS: 1.2, MirrorProb: 0.9, MirrorNoise: 0.03, Seed: seed,
	}
}

// TestMaybeRetuneGates checks the drift-gated path: quiet under no
// drift, firing after a distribution shift.
func TestMaybeRetuneGates(t *testing.T) {
	e, _ := buildFixture(t, 300, 1)
	if err := e.EnableTuning(tuner.Config{
		Rand:         rand.New(rand.NewSource(9)),
		MinMutations: 64,
		MinPairs:     64,
	}); err != nil {
		t.Fatalf("enable tuning: %v", err)
	}
	// No mutations at all → no retune.
	res, err := e.MaybeRetune()
	if err != nil {
		t.Fatalf("maybe-retune: %v", err)
	}
	if res.Swapped {
		t.Fatal("MaybeRetune swapped with no mutations")
	}

	// Flood with near-duplicates: D_S grows a high-similarity mode that
	// the build-time profile lacks.
	mirrored, err := workload.Generate(mirrorParams(600, 77))
	if err != nil {
		t.Fatalf("generate mirrored: %v", err)
	}
	for _, s := range mirrored {
		if _, err := e.Insert(s); err != nil {
			t.Fatalf("insert: %v", err)
		}
	}
	res, err = e.MaybeRetune()
	if err != nil {
		t.Fatalf("maybe-retune after drift: %v", err)
	}
	if !res.Swapped {
		t.Fatalf("MaybeRetune did not swap after a drifting flood (drift %v)", res.Drift)
	}
	if res.Drift <= tuner.DefaultDriftThreshold {
		t.Fatalf("reported drift %v not above threshold", res.Drift)
	}
	// Immediately after the rebase there is nothing left to do.
	res, err = e.MaybeRetune()
	if err != nil {
		t.Fatalf("maybe-retune post-swap: %v", err)
	}
	if res.Swapped {
		t.Fatal("MaybeRetune swapped again immediately after a rebase")
	}
}

// TestMaybeRetuneRecoversRecall is the drift direction opposite to
// TestMaybeRetuneGates, end to end: the index is built over a
// near-duplicate collection, so its equidepth cuts concentrate on one
// high-similarity mode; a diverse Set1 stream twice the base size then
// pulls D_S toward low similarity. The tracker must fire unaided, and the
// one query workload evaluated on both sides of the swap must see strictly
// higher recall (against brute-force truth) on the re-tuned plan.
func TestMaybeRetuneRecoversRecall(t *testing.T) {
	base, err := workload.Generate(mirrorParams(400, 12))
	if err != nil {
		t.Fatalf("generate base: %v", err)
	}
	e, err := Build(base, Options{Core: core.Options{
		Embed:    minhash.Options{K: 32, Bits: 8, Seed: 1},
		Plan:     optimize.Options{Budget: 120, RecallTarget: 0.75},
		DistSeed: 1,
	}})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if err := e.EnableTuning(tuner.Config{
		Rand:         rand.New(rand.NewSource(98)),
		MinMutations: 64,
		MinPairs:     64,
	}); err != nil {
		t.Fatalf("enable tuning: %v", err)
	}
	flood, err := workload.Generate(workload.Set1Params(2 * len(base)))
	if err != nil {
		t.Fatalf("generate flood: %v", err)
	}
	live := append([]set.Set(nil), base...)
	for _, s := range flood {
		if _, err := e.Insert(s); err != nil {
			t.Fatalf("insert: %v", err)
		}
		live = append(live, s)
	}
	queries, err := workload.Queries(len(live), workload.QueryParams{Count: 32, Seed: 62})
	if err != nil {
		t.Fatalf("queries: %v", err)
	}
	// meanRecall replays the workload and returns mean per-query recall
	// (1 on empty truth) plus the plan generation that answered it.
	// Verification makes every returned match correct, so recall is
	// |matches| / |truth|.
	meanRecall := func() (float64, uint64) {
		var sum float64
		var gen uint64
		for _, q := range queries {
			qset := live[q.SID]
			matches, st, err := e.QueryWithOptions(qset, q.Lo, q.Hi, core.QueryOptions{})
			if err != nil {
				t.Fatalf("query: %v", err)
			}
			truth := 0
			for _, s := range live {
				if sim := qset.Jaccard(s); sim >= q.Lo && sim <= q.Hi {
					truth++
				}
			}
			r := 1.0
			if truth > 0 {
				r = float64(len(matches)) / float64(truth)
			}
			sum += r
			gen = st.PlanGeneration
		}
		return sum / float64(len(queries)), gen
	}

	stale, gen := meanRecall()
	if gen != 0 {
		t.Fatalf("stale workload answered by generation %d, want 0", gen)
	}
	res, err := e.MaybeRetune()
	if err != nil {
		t.Fatalf("maybe-retune: %v", err)
	}
	if !res.Swapped || res.Drift <= tuner.DefaultDriftThreshold {
		t.Fatalf("tracker did not fire on the diverse flood: swapped=%v drift %.3f vs threshold %.3f",
			res.Swapped, res.Drift, tuner.DefaultDriftThreshold)
	}
	retuned, gen := meanRecall()
	if gen != 1 {
		t.Fatalf("retuned workload answered by generation %d, want 1", gen)
	}
	if retuned <= stale {
		t.Fatalf("retune did not recover recall: stale %.3f, retuned %.3f", stale, retuned)
	}
}
