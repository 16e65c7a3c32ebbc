package lsh

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/hashtable"
	"repro/internal/storage"
)

// query returns the sids Query marks for coords (unflipped), ascending.
func query(g *Group, coords []uint64) []storage.SID {
	return hashtable.AppendMarked(nil, g.Query(coords, 0, nil, nil))
}

// dedupe sorts and deduplicates sids in place: the list merge a probe ran
// before it marked a bitset, kept as the reference.
func dedupe(sids []storage.SID) []storage.SID {
	if len(sids) < 2 {
		return sids
	}
	slices.Sort(sids)
	out := sids[:1]
	for _, s := range sids[1:] {
		if s != out[len(out)-1] {
			out = append(out, s)
		}
	}
	return out
}

// TestQueryMatchesReference checks Query's bitset against the reference
// union: every table's colliding sids (stored key equal to the probe key,
// decided from the vectors themselves) concatenated and sort-deduplicated.
// A reused, cleared bitset must not grow once warm.
func TestQueryMatchesReference(t *testing.T) {
	g := newTestGroup(t, 256, 8, 6)
	rng := rand.New(rand.NewSource(11))
	vecs := make([][]uint64, 50)
	for i := range vecs {
		vecs[i] = randomVec(rng, 256)
		g.Insert(vecs[i], storage.SID(i))
	}

	var marks []uint64
	for _, flip := range []byte{0, 1} {
		for i, q := range vecs {
			var raw []storage.SID
			for tab := 0; tab < g.L(); tab++ {
				for sid, v := range vecs {
					if g.Key(tab, v, 0) == g.Key(tab, q, flip) {
						raw = append(raw, storage.SID(sid))
					}
				}
			}
			want := dedupe(raw)
			clear(marks)
			marks = g.Query(q, flip, nil, marks)
			if got := hashtable.AppendMarked(nil, marks); !slices.Equal(got, want) {
				t.Fatalf("flip %d query %d: %v, want %v", flip, i, got, want)
			}
		}
	}
	if len(marks) != (len(vecs)+63)/64 {
		t.Fatalf("bitset has %d words for %d sids", len(marks), len(vecs))
	}
}
