package ssr

import (
	"fmt"
	"math"
	"testing"
)

// TestQueryBatchMatchesQuery checks the public batch API returns, per
// entry, exactly what the single-query path returns — unsharded and with
// more shards than the bookstore has similar sets.
func TestQueryBatchMatchesQuery(t *testing.T) {
	queries := []BatchQuery{
		{Elements: []string{"dune", "foundation", "hyperion", "neuromancer"}, Lo: 0.9, Hi: 1.0},
		{Elements: []string{"dune", "foundation", "hyperion", "snowcrash"}, Lo: 0.5, Hi: 1.0},
		{Elements: []string{"cookbook", "gardening", "carpentry"}, Lo: 0.9, Hi: 1.0},
	}
	for _, shards := range []int{1, 8} {
		ix, err := Build(bookstore(), Options{Budget: 24, RecallTarget: 0.9, MinHashes: 48, Seed: 3, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3, 16} {
			label := fmt.Sprintf("shards=%d workers=%d", shards, workers)
			results := ix.QueryBatch(queries, QueryOptions{Workers: workers})
			if len(results) != len(queries) {
				t.Fatalf("%s: %d results", label, len(results))
			}
			for i, q := range queries {
				want, wantSt, err := ix.Query(q.Elements, q.Lo, q.Hi)
				if err != nil {
					t.Fatal(err)
				}
				r := results[i]
				if r.Err != nil {
					t.Fatalf("%s entry %d: %v", label, i, r.Err)
				}
				if fmt.Sprint(r.Matches) != fmt.Sprint(want) {
					t.Fatalf("%s entry %d: batch %v, standalone %v", label, i, r.Matches, want)
				}
				if r.Stats.RandomPageReads != wantSt.RandomPageReads ||
					r.Stats.SequentialPageReads != wantSt.SequentialPageReads {
					t.Fatalf("%s entry %d: I/O differs: %d/%d vs %d/%d", label, i,
						r.Stats.RandomPageReads, r.Stats.SequentialPageReads,
						wantSt.RandomPageReads, wantSt.SequentialPageReads)
				}
			}
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
