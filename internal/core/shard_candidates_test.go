package core_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/minhash"
	"repro/internal/optimize"
	"repro/internal/set"
)

// goldenSets is the shape of the public golden snapshot's collection:
// twelve overlapping families of element ids plus one unique element per
// set, so similarities spread over all of [0, 1]. Sets numbered from n0
// continue the pattern.
func goldenSets(n0, n int) []set.Set {
	out := make([]set.Set, n)
	for k := range out {
		i := n0 + k
		var elems []set.Elem
		base := i % 12
		for j := 0; j < 8+i%5; j++ {
			elems = append(elems, set.Elem(base*6+j))
		}
		out[k] = set.New(append(elems, set.Elem(1000+i))...)
	}
	return out
}

// TestCandidatesMatchReferenceAcrossShards checks every shard core's bitset
// candidates against the sorted-merge reference over random ranges, on the
// golden collection at 1 and 4 shards: as built, after Inserts that grow
// each shard's sid space past the build's (so the pooled bitsets grow),
// and after Deletes.
func TestCandidatesMatchReferenceAcrossShards(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			e, err := engine.Build(goldenSets(0, 120), engine.Options{
				Shards:     shards,
				RouterSeed: 7,
				Core: core.Options{
					Embed:    minhash.Options{K: 24, Bits: 6, Seed: 7},
					Plan:     optimize.Options{Budget: 60},
					PageSize: 1024,
					DistSeed: 7,
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(shards)))
			check := func(stage string) {
				t.Helper()
				total := 0
				queries := goldenSets(rng.Intn(400), 20)
				for _, q := range queries {
					s1, s2 := rng.Float64(), rng.Float64()
					if s1 > s2 {
						s1, s2 = s2, s1
					}
					for si := 0; si < e.NumShards(); si++ {
						c := e.ShardCore(si)
						var stats core.QueryStats
						got, err := c.Candidates(q, s1, s2, &stats)
						if err != nil {
							t.Fatal(err)
						}
						want, err := c.ReferenceCandidates(q, s1, s2)
						if err != nil {
							t.Fatal(err)
						}
						if !slices.Equal(got, want) {
							t.Fatalf("%s: shard %d range [%g, %g]: bitset %v, reference %v", stage, si, s1, s2, got, want)
						}
						total += len(want)
					}
				}
				if total == 0 {
					t.Fatalf("%s: every range produced an empty candidate set", stage)
				}
			}
			check("built")
			before := e.ShardCore(0).NumAllocated()
			for _, s := range goldenSets(120, 150) {
				if _, err := e.Insert(s); err != nil {
					t.Fatal(err)
				}
			}
			if after := e.ShardCore(0).NumAllocated(); after/64 == before/64 {
				t.Fatalf("inserts left shard 0 at %d sids (from %d): the bitsets never grew a word", after, before)
			}
			check("after inserts")
			for g := uint32(0); g < 270; g += 3 {
				if err := e.Delete(g); err != nil {
					t.Fatal(err)
				}
			}
			check("after deletes")
		})
	}
}
