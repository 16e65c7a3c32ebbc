package ssr

import (
	"fmt"
	"math"
	"strconv"
	"sync"
	"testing"

	"repro/internal/set"
	"repro/internal/workload"
)

// stringCollection loads sets into a public collection, one string
// element per uint64, returning the element lists for building queries.
func stringCollection(sets []set.Set) (*Collection, [][]string) {
	c := NewCollection()
	elems := make([][]string, len(sets))
	for i, s := range sets {
		for _, e := range s.Elems() {
			elems[i] = append(elems[i], strconv.FormatUint(e, 10))
		}
		c.Add(elems[i]...)
	}
	return c, elems
}

// TestQueryBatchMatchesQuery checks the public batch returns, per entry,
// exactly what the single query returns — byte-identical matches, the
// same I/O and the same chosen plan — at one and four shards, with the
// planner off, cost-based (which picks direct-scan on a collection this
// small) and forced to either exact plan, at several worker counts. Every exact plan must also answer like the planner-off
// reference, and a repeated batch must be served from the result cache.
func TestQueryBatchMatchesQuery(t *testing.T) {
	sets, err := workload.Generate(workload.Set1Params(300))
	if err != nil {
		t.Fatal(err)
	}
	// Each range sits in its own plan-cache bucket and no entry repeats,
	// so neither cache makes an entry's plan depend on the order the
	// batch happened to run it in.
	ranges := [][2]float64{{0.9, 1.0}, {0.75, 0.85}, {0.5, 1.0}, {0.3, 0.6}, {0.1, 0.9}}
	planners := []struct {
		name   string
		policy *PlannerPolicy
	}{
		{"off", nil},
		{"cost", &PlannerPolicy{}},
		{"direct-scan", &PlannerPolicy{ForcePlan: "direct-scan"}},
		{"fi-probe", &PlannerPolicy{ForcePlan: "fi-probe"}},
	}
	for _, shards := range []int{1, 4} {
		c, elems := stringCollection(sets)
		var queries []BatchQuery
		seen := map[string]bool{}
		for _, sid := range []int{0, 75, 150, 225, 299} {
			if key := fmt.Sprint(elems[sid]); !seen[key] {
				seen[key] = true
				for _, r := range ranges {
					queries = append(queries, BatchQuery{Elements: elems[sid], Lo: r[0], Hi: r[1]})
				}
			}
		}
		ix, err := Build(c, Options{Budget: 60, RecallTarget: 0.9, MinHashes: 64, Seed: 3, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		ref := make([][]Match, len(queries))
		for i, q := range queries {
			if ref[i], _, err = ix.Query(q.Elements, q.Lo, q.Hi); err != nil {
				t.Fatal(err)
			}
		}
		for _, p := range planners {
			for _, workers := range []int{1, 3, 16} {
				label := fmt.Sprintf("shards=%d planner=%s workers=%d", shards, p.name, workers)
				opt := QueryOptions{Workers: workers}
				// Fresh caches for the single queries and again for the
				// batch, so both meet every entry cold.
				resetPlanner := func() {
					if p.policy != nil {
						ix.EnablePlanner(*p.policy)
					}
				}
				resetPlanner()
				want := make([]BatchResult, len(queries))
				for i, q := range queries {
					r := &want[i]
					if r.Matches, r.Stats, r.Err = ix.QueryWithOptions(q.Elements, q.Lo, q.Hi, opt); r.Err != nil {
						t.Fatal(r.Err)
					}
				}
				resetPlanner()
				results := ix.QueryBatch(queries, opt)
				if len(results) != len(queries) {
					t.Fatalf("%s: %d results for %d queries", label, len(results), len(queries))
				}
				for i, r := range results {
					entry := fmt.Sprintf("%s entry %d", label, i)
					if r.Err != nil {
						t.Fatalf("%s: %v", entry, r.Err)
					}
					requireSamePublicMatches(t, entry, r.Matches, want[i].Matches)
					requireSamePublicMatches(t, entry+" vs planner off", r.Matches, ref[i])
					st, wst := r.Stats, want[i].Stats
					if st.PlanChosen != wst.PlanChosen || st.Candidates != wst.Candidates ||
						st.RandomPageReads != wst.RandomPageReads || st.SequentialPageReads != wst.SequentialPageReads {
						t.Fatalf("%s: plan %q, %d candidates, %d/%d I/O; single query: %q, %d, %d/%d", entry,
							st.PlanChosen, st.Candidates, st.RandomPageReads, st.SequentialPageReads,
							wst.PlanChosen, wst.Candidates, wst.RandomPageReads, wst.SequentialPageReads)
					}
				}
				if p.policy == nil {
					continue
				}
				for i, r := range ix.QueryBatch(queries, opt) {
					entry := fmt.Sprintf("%s warm entry %d", label, i)
					if r.Err != nil || r.Stats.CacheHits != 1 || r.Stats.PlanChosen != "cached" {
						t.Fatalf("%s: err %v, %d cache hits, plan %q; want one hit", entry, r.Err, r.Stats.CacheHits, r.Stats.PlanChosen)
					}
					requireSamePublicMatches(t, entry, r.Matches, want[i].Matches)
				}
			}
		}
		ix.DisablePlanner()
	}
}

// TestQueryBatchUnderMutation races QueryBatch against concurrent Add and
// Remove (run with -race) at one and four shards: entries see the index
// before or after each write, and none errors.
func TestQueryBatchUnderMutation(t *testing.T) {
	sets, err := workload.Generate(workload.Set1Params(200))
	if err != nil {
		t.Fatal(err)
	}
	qs, err := workload.Queries(len(sets), workload.QueryParams{Count: 16, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 4} {
		c, elems := stringCollection(sets)
		ix, err := Build(c, Options{Budget: 30, MinHashes: 48, Seed: 5, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		batch := make([]BatchQuery, len(qs))
		for i, q := range qs {
			batch[i] = BatchQuery{Elements: elems[q.SID], Lo: q.Lo, Hi: q.Hi}
		}
		var wg sync.WaitGroup
		errs := make(chan error, 16)
		stop := make(chan struct{})
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					opt := QueryOptions{Workers: 1 + g, Screen: i%2 == 0}
					for _, r := range ix.QueryBatch(batch, opt) {
						if r.Err != nil {
							errs <- r.Err
							return
						}
					}
				}
			}(g)
		}
		var writers sync.WaitGroup
		for w := 0; w < 2; w++ {
			writers.Add(1)
			go func(w int) {
				defer writers.Done()
				for i := 0; i < 20; i++ {
					base := 2_000_000 + w*10_000 + i*100
					sid, err := ix.Add(strconv.Itoa(base), strconv.Itoa(base+1), strconv.Itoa(base+2))
					if err != nil {
						errs <- err
						return
					}
					if i%2 == 0 {
						if err := ix.Remove(sid); err != nil {
							errs <- err
							return
						}
					}
				}
			}(w)
		}
		writers.Wait()
		close(stop)
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Errorf("shards=%d: batch under mutation: %v", shards, err)
		}
	}
}

// TestQueryBatchRangeValidation checks invalid ranges fail their own entry
// only.
func TestQueryBatchRangeValidation(t *testing.T) {
	ix, err := Build(bookstore(), Options{Budget: 24, MinHashes: 48, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	queries := []BatchQuery{
		{Elements: []string{"dune"}, Lo: -0.5, Hi: 1.0},
		{Elements: []string{"dune", "foundation", "hyperion", "neuromancer"}, Lo: 0.9, Hi: 1.0},
		{Elements: []string{"dune"}, Lo: math.NaN(), Hi: 1.0},
		{Elements: []string{"dune"}, Lo: 0.5, Hi: math.NaN()},
	}
	results := ix.QueryBatch(queries, QueryOptions{})
	for _, i := range []int{0, 2, 3} {
		if results[i].Err == nil {
			t.Errorf("entry %d: range [%g, %g] accepted", i, queries[i].Lo, queries[i].Hi)
		}
	}
	if results[1].Err != nil {
		t.Errorf("valid entry failed: %v", results[1].Err)
	}
	if len(results[1].Matches) != 2 {
		t.Errorf("valid entry matches = %+v", results[1].Matches)
	}
	if got := ix.QueryBatch(nil, QueryOptions{}); len(got) != 0 {
		t.Errorf("empty batch returned %d results", len(got))
	}
}

// TestQueryWithOptionsScreening smoke-tests the public screening knob: a
// full-width margin screens nothing and changes nothing.
func TestQueryWithOptionsScreening(t *testing.T) {
	ix, err := Build(bookstore(), Options{Budget: 24, MinHashes: 48, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	elems := []string{"dune", "foundation", "hyperion", "neuromancer"}
	plain, _, err := ix.Query(elems, 0.9, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	screened, st, err := ix.QueryWithOptions(elems, 0.9, 1.0, QueryOptions{Screen: true, ScreenMargin: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.Screened != 0 {
		t.Errorf("margin=1 screened %d", st.Screened)
	}
	if len(screened) != len(plain) {
		t.Errorf("screening changed results: %d vs %d", len(screened), len(plain))
	}
}

// TestBuildWorkersIdentical checks the public Workers knob preserves
// results: serial and parallel builds answer identically.
func TestBuildWorkersIdentical(t *testing.T) {
	c := NewCollection()
	for i := 0; i < 150; i++ {
		c.Add(fmt.Sprintf("e-%d", i), fmt.Sprintf("e-%d", i+1), fmt.Sprintf("e-%d", i/2))
	}
	serial, err := Build(c, Options{Budget: 30, MinHashes: 48, Seed: 9, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Build(c, Options{Budget: 30, MinHashes: 48, Seed: 9, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for sid := 0; sid < 150; sid += 17 {
		a, _, err := serial.QuerySID(sid, 0.3, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := par.QuerySID(sid, 0.3, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("sid %d: %d vs %d matches", sid, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("sid %d match %d differs: %+v vs %+v", sid, i, a[i], b[i])
			}
		}
	}
}

// TestQueryInvalidScreenMargin checks that a NaN, infinite or negative
// screening margin fails the public single and batch queries — on one and
// four shards, planner off and on, even after the same query with a valid
// margin has been answered (and, under the planner, cached).
func TestQueryInvalidScreenMargin(t *testing.T) {
	elems := []string{"dune", "foundation", "hyperion", "neuromancer"}
	for _, shards := range []int{1, 4} {
		for _, planner := range []bool{false, true} {
			ix, err := Build(bookstore(), Options{Budget: 24, MinHashes: 48, Seed: 3, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			if planner {
				ix.EnablePlanner(PlannerPolicy{})
			}
			if _, _, err := ix.QueryWithOptions(elems, 0.5, 1.0, QueryOptions{}); err != nil {
				t.Fatal(err)
			}
			for _, eps := range []float64{math.NaN(), math.Inf(1), -1} {
				for _, screen := range []bool{false, true} {
					opt := QueryOptions{Screen: screen, ScreenMargin: eps}
					if _, _, err := ix.QueryWithOptions(elems, 0.5, 1.0, opt); err == nil {
						t.Errorf("shards=%d planner=%v: margin %g screen=%v accepted", shards, planner, eps, screen)
					}
					if res := ix.QueryBatch([]BatchQuery{{Elements: elems, Lo: 0.5, Hi: 1.0}}, opt); res[0].Err == nil {
						t.Errorf("shards=%d planner=%v: batch margin %g screen=%v accepted", shards, planner, eps, screen)
					}
				}
			}
		}
	}
}

// TestStatsSizePruned checks the public Stats carry the size bound's
// count summed over shards: near-duplicate queries skip some candidates by
// size, and none of them is also counted as screened. ScreenedFraction is
// Screened/Candidates.
func TestStatsSizePruned(t *testing.T) {
	sets, err := workload.Generate(workload.Set1Params(300))
	if err != nil {
		t.Fatal(err)
	}
	c, elems := stringCollection(sets)
	ix, err := Build(c, Options{Budget: 40, MinHashes: 64, Seed: 5, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	pruned := 0
	for i := 0; i < len(elems); i += 15 {
		_, st, err := ix.QueryWithOptions(elems[i], 0.8, 1.0, QueryOptions{Screen: true})
		if err != nil {
			t.Fatal(err)
		}
		if st.SizePruned+st.Screened+st.Results > st.Candidates {
			t.Fatalf("query %d: %d size-pruned + %d screened + %d results exceed %d candidates", i, st.SizePruned, st.Screened, st.Results, st.Candidates)
		}
		if st.Candidates > 0 && st.ScreenedFraction != float64(st.Screened)/float64(st.Candidates) {
			t.Fatalf("query %d: ScreenedFraction = %g, want %d/%d", i, st.ScreenedFraction, st.Screened, st.Candidates)
		}
		pruned += st.SizePruned
	}
	if pruned == 0 {
		t.Fatal("no near-duplicate query size-pruned a candidate")
	}
}
