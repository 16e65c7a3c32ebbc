package lsh

import (
	"math/rand"
	"testing"

	"repro/internal/storage"
)

// TestQueryAppendMatchesQuery checks the append variant returns the same
// deduplicated sid set as Query and actually reuses the supplied capacity.
func TestQueryAppendMatchesQuery(t *testing.T) {
	g := newTestGroup(t, 256, 8, 6)
	rng := rand.New(rand.NewSource(11))
	vecs := make([][]uint64, 50)
	for i := range vecs {
		v := randomVec(rng, 256)
		vecs[i] = v
		g.Insert(v, storage.SID(i))
	}

	var buf []storage.SID
	for i, q := range vecs {
		want := g.Query(q, 0, nil)
		buf = g.QueryAppend(q, 0, nil, buf[:0])
		if len(buf) != len(want) {
			t.Fatalf("query %d: %d vs %d sids", i, len(buf), len(want))
		}
		for j := range want {
			if buf[j] != want[j] {
				t.Fatalf("query %d sid %d: %d vs %d", i, j, buf[j], want[j])
			}
		}
	}
	if cap(buf) == 0 {
		t.Fatal("append path never grew the shared buffer")
	}

	// After warm-up the shared buffer must satisfy probes without growing.
	grown := 0
	for _, q := range vecs {
		c := cap(buf)
		buf = g.QueryAppend(q, 0, nil, buf[:0])
		if cap(buf) != c {
			grown++
		}
	}
	if grown != 0 {
		t.Fatalf("warm buffer reallocated %d times across %d probes", grown, len(vecs))
	}
}
