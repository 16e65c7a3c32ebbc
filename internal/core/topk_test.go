package core

import (
	"sort"
	"testing"
)

func TestTopKBasics(t *testing.T) {
	ix, sets := buildSmall(t, 500, 60)
	const k = 10
	got, stats, err := ix.TopKPresigned(sets[0], nil, k)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("no results")
	}
	if len(got) > k {
		t.Fatalf("got %d results, want <= %d", len(got), k)
	}
	// Self must be first with similarity 1.
	if got[0].SID != 0 || got[0].Similarity != 1 {
		t.Errorf("best = %+v, want self at similarity 1", got[0])
	}
	// Descending order, ties by sid.
	for i := 1; i < len(got); i++ {
		if got[i].Similarity > got[i-1].Similarity {
			t.Fatal("results not sorted by descending similarity")
		}
		if got[i].Similarity == got[i-1].Similarity && got[i].SID < got[i-1].SID {
			t.Fatal("sid tie-break violated")
		}
	}
	if stats.Results != len(got) {
		t.Errorf("stats.Results = %d, len = %d", stats.Results, len(got))
	}
	if stats.Candidates < len(got) {
		t.Errorf("candidates %d < results %d", stats.Candidates, len(got))
	}
}

func TestTopKMatchesBruteForceOnTop(t *testing.T) {
	ix, sets := buildSmall(t, 400, 60)
	const k = 5
	for _, q := range []int{1, 50, 123} {
		got, _, err := ix.TopKPresigned(sets[q], nil, k)
		if err != nil {
			t.Fatal(err)
		}
		// Brute-force top-k.
		type pair struct {
			sid int
			sim float64
		}
		all := make([]pair, len(sets))
		for i, s := range sets {
			all[i] = pair{i, sets[q].Jaccard(s)}
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].sim != all[j].sim {
				return all[i].sim > all[j].sim
			}
			return all[i].sid < all[j].sid
		})
		// The returned similarities must be close to the true top-k values:
		// allow filter misses but the best result must be exact (self).
		if len(got) == 0 || got[0].Similarity != 1 {
			t.Fatalf("query %d: self not found: %+v", q, got)
		}
		// At least half the true top-k should be recovered for clustered
		// queries; skip when truth has near-zero neighbours.
		if all[k-1].sim > 0.5 {
			found := 0
			truth := map[int]bool{}
			for _, p := range all[:k] {
				truth[p.sid] = true
			}
			for _, m := range got {
				if truth[int(m.SID)] {
					found++
				}
			}
			if found < k/2 {
				t.Errorf("query %d: only %d of true top-%d recovered", q, found, k)
			}
		}
	}
}

func TestTopKValidation(t *testing.T) {
	ix, sets := buildSmall(t, 100, 30)
	if _, _, err := ix.TopKPresigned(sets[0], nil, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, _, err := ix.TopKPresigned(sets[0], nil, -3); err == nil {
		t.Error("negative k accepted")
	}
}

func TestTopKAfterDelete(t *testing.T) {
	ix, sets := buildSmall(t, 200, 40)
	got, _, err := ix.TopKPresigned(sets[0], nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("no results")
	}
	victim := got[0].SID
	if err := ix.Delete(victim); err != nil {
		t.Fatal(err)
	}
	after, _, err := ix.TopKPresigned(sets[0], nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range after {
		if m.SID == victim {
			t.Error("deleted sid in top-k")
		}
	}
}
