package core

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/hashtable"
	"repro/internal/storage"
)

// marksOf returns the sid bitset of sids.
func marksOf(sids []storage.SID) []uint64 {
	var marks []uint64
	for _, s := range sids {
		for int(s>>6) >= len(marks) {
			marks = append(marks, 0)
		}
		marks[s>>6] |= 1 << (s & 63)
	}
	return marks
}

// bitDiff and bitUnion are the word-by-word bitset operations of
// candidatesFromSignature, on bitsets padded to a common length.
func bitDiff(a, b []storage.SID) []storage.SID {
	x, y := padded(marksOf(a), marksOf(b))
	for i := range x {
		x[i] &^= y[i]
	}
	return hashtable.AppendMarked(nil, x)
}

func bitUnion(a, b []storage.SID) []storage.SID {
	x, y := padded(marksOf(a), marksOf(b))
	for i := range x {
		x[i] |= y[i]
	}
	return hashtable.AppendMarked(nil, x)
}

func padded(x, y []uint64) ([]uint64, []uint64) {
	n := max(len(x), len(y))
	return append(x, make([]uint64, n-len(x))...), append(y, make([]uint64, n-len(y))...)
}

func TestSidSetOps(t *testing.T) {
	a := []storage.SID{1, 2, 3, 5, 8, 200}
	b := []storage.SID{2, 3, 4, 8, 64}
	cases := []struct {
		name      string
		got, want []storage.SID
	}{
		{"diff", sidDiff(a, b), []storage.SID{1, 5, 200}},
		{"bit diff", bitDiff(a, b), []storage.SID{1, 5, 200}},
		{"union", sidUnion(a, b), []storage.SID{1, 2, 3, 4, 5, 8, 64, 200}},
		{"bit union", bitUnion(a, b), []storage.SID{1, 2, 3, 4, 5, 8, 64, 200}},
		{"diff(nil, b)", sidDiff(nil, b), nil},
		{"bit diff(nil, b)", bitDiff(nil, b), nil},
		{"union(nil, nil)", sidUnion(nil, nil), nil},
		{"bit union(nil, nil)", bitUnion(nil, nil), nil},
	}
	for _, c := range cases {
		if !slices.Equal(c.got, c.want) {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}

func TestSidOpsProperties(t *testing.T) {
	// Model-based check of the sorted-merge reference against maps, and of
	// the bitset algebra against the reference.
	f := func(rawA, rawB []uint16) bool {
		mkSorted := func(raw []uint16) []storage.SID {
			out := make([]storage.SID, len(raw))
			for i, v := range raw {
				out[i] = storage.SID(v % 200)
			}
			return dedupe(out)
		}
		a, b := mkSorted(rawA), mkSorted(rawB)
		inB := map[storage.SID]bool{}
		for _, v := range b {
			inB[v] = true
		}
		diff := sidDiff(a, b)
		for _, v := range diff {
			if inB[v] {
				return false
			}
		}
		union := sidUnion(a, b)
		for i := 1; i < len(union); i++ {
			if union[i-1] >= union[i] {
				return false
			}
		}
		// |A| = |A\B| + |A∩B| and |A∪B| = |A| + |B| - |A∩B|.
		inter := 0
		for _, v := range a {
			if inB[v] {
				inter++
			}
		}
		return len(diff) == len(a)-inter && len(union) == len(a)+len(b)-inter &&
			slices.Equal(bitDiff(a, b), diff) && slices.Equal(bitUnion(a, b), union)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestCandidatesEveryCombinationShape checks the bitset candidates against
// the sorted-merge reference on the fixed plan, over random ranges that
// reach every Section 4.3 shape: one term with and without NegA, and two
// terms with every NegA × NegB presence.
func TestCandidatesEveryCombinationShape(t *testing.T) {
	ix, sets := fixedPlanIndex(t)
	rng := rand.New(rand.NewSource(9))
	type shape struct{ negA, posB, negB bool }
	seen := map[shape]int{}
	total := 0
	for trial := 0; trial < 200; trial++ {
		s1, s2 := rng.Float64(), rng.Float64()
		if s1 > s2 {
			s1, s2 = s2, s1
		}
		if trial%10 == 0 {
			s1 = 0
		}
		if trial%10 == 1 {
			s2 = 1
		}
		q := sets[rng.Intn(len(sets))]
		var stats QueryStats
		got, err := ix.Candidates(q, s1, s2, &stats)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ix.ReferenceCandidates(q, s1, s2)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("range [%g, %g]: %d bitset candidates, %d reference", s1, s2, len(got), len(want))
		}
		if stats.Candidates != len(want) {
			t.Fatalf("range [%g, %g]: stats count %d candidates, want %d", s1, s2, stats.Candidates, len(want))
		}
		total += len(want)
		c, _ := ix.plan.Combination(ix.plan.Enclose(s1, s2))
		seen[shape{c.NegA >= 0, c.PosB >= 0, c.NegB >= 0}]++
	}
	if total == 0 {
		t.Fatal("every range produced an empty candidate set")
	}
	for _, sh := range []shape{
		{false, false, false}, {true, false, false},
		{false, true, false}, {true, true, false}, {false, true, true}, {true, true, true},
	} {
		if seen[sh] == 0 {
			t.Errorf("no range exercised shape %+v (seen %v)", sh, seen)
		}
	}
}

// TestCandidateGenerationAllocatesNothing pins the pooled path: once the
// scratch's bitsets and candidate buffer are warm, the probe, the word-wise
// combination and the sid emission allocate nothing.
func TestCandidateGenerationAllocatesNothing(t *testing.T) {
	ix, sets := fixedPlanIndex(t)
	sig := ix.perms.Sign(sets[3])
	sc := ix.scratch.Get().(*queryScratch)
	defer ix.scratch.Put(sc)
	for _, r := range [][2]float64{{0, 1}, {0.2, 0.7}, {0.45, 0.8}, {0.1, 0.3}} {
		var stats QueryStats
		if _, err := ix.candidatesFromSignature(sig, r[0], r[1], &stats, sc); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := ix.candidatesFromSignature(sig, r[0], r[1], &stats, sc); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("range %v: %.1f allocations per candidate generation, want 0", r, allocs)
		}
	}
}
