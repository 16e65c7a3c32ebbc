package filter

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/hashtable"
	"repro/internal/lsh"
	"repro/internal/storage"
)

// newTestIndex returns an empty SFI over dim 1-bit coordinates sampling r
// bits in each of l tables, whatever the threshold.
func newTestIndex(t *testing.T, dim, r, l int) *Index {
	t.Helper()
	ix, err := newIndex(0, Options{Code: bitCode(t), K: dim, Tables: l, Seed: 5, ExpectedEntries: 100}, r)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// query returns the sids Probe marks for coords, ascending.
func query(ix *Index, coords []uint64) []storage.SID {
	return hashtable.AppendMarked(nil, ix.Probe(coords, nil, nil))
}

func TestPositionsDistinctSortedInRange(t *testing.T) {
	ix := newTestIndex(t, 500, 40, 8)
	for i := 0; i < ix.Tables(); i++ {
		pos := ix.Positions(i)
		if len(pos) != 40 {
			t.Fatalf("table %d has %d positions", i, len(pos))
		}
		for j := 1; j < len(pos); j++ {
			if pos[j] <= pos[j-1] {
				t.Fatalf("table %d positions not strictly increasing: %v", i, pos)
			}
		}
		if pos[0] < 0 || pos[len(pos)-1] >= 500 {
			t.Fatalf("positions out of range: %v", pos)
		}
	}
}

func TestRCoveringFullDimension(t *testing.T) {
	ix := newTestIndex(t, 16, 16, 2)
	if len(ix.Positions(0)) != 16 {
		t.Errorf("full-dimension sample has %d positions", len(ix.Positions(0)))
	}
}

// TestPositionsReproducibleBySeed verifies that the same seed reproduces
// the sampled bit positions exactly — the property that lets snapshot
// loading rebuild filter indices instead of persisting them.
func TestPositionsReproducibleBySeed(t *testing.T) {
	opt := Options{Code: bitCode(t), K: 512, Tables: 6, Seed: 4242, ExpectedEntries: 100}
	a, err := newIndex(0, opt, 12)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newIndex(0, opt, 12)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < opt.Tables; i++ {
		if pa, pb := a.Positions(i), b.Positions(i); !slices.Equal(pa, pb) {
			t.Fatalf("table %d positions differ across same-seed indices: %v vs %v", i, pa, pb)
		}
	}
}

// TestIndexReproducibleBySeed builds two indices through New from the same
// seed and checks that they sample the same bits and answer every probe
// with the same sids.
func TestIndexReproducibleBySeed(t *testing.T) {
	const dim = 300
	a := newFI(t, Similar, 0.8, dim, 4)
	b := newFI(t, Similar, 0.8, dim, 4)
	for i := 0; i < a.Tables(); i++ {
		if pa, pb := a.Positions(i), b.Positions(i); !slices.Equal(pa, pb) {
			t.Fatalf("table %d positions differ across same-seed indices: %v vs %v", i, pa, pb)
		}
	}
	rng := rand.New(rand.NewSource(9))
	vecs := make([][]uint64, 30)
	for i := range vecs {
		vecs[i] = randomVec(rng, dim)
		if i%2 == 1 {
			vecs[i] = corrupt(rng, vecs[i-1], dim/50)
		}
		a.Insert(vecs[i], storage.SID(i))
		b.Insert(vecs[i], storage.SID(i))
	}
	for i, q := range vecs {
		if got, want := a.Vector(q, nil), b.Vector(q, nil); !slices.Equal(got, want) {
			t.Fatalf("query %d: %v vs %v across same-seed indices", i, got, want)
		}
	}
}

func TestIdenticalVectorsAlwaysCollide(t *testing.T) {
	ix := newTestIndex(t, 256, 20, 6)
	rng := rand.New(rand.NewSource(1))
	v := randomVec(rng, 256)
	ix.Insert(v, 42)
	got := query(ix, v)
	if len(got) != 1 || got[0] != 42 {
		t.Errorf("Probe = %v, want [42]", got)
	}
}

func TestProbeDeduplicates(t *testing.T) {
	// The same sid found in several tables must be reported once.
	ix := newTestIndex(t, 128, 4, 10)
	rng := rand.New(rand.NewSource(2))
	v := randomVec(rng, 128)
	ix.Insert(v, 7)
	got := query(ix, v)
	if len(got) != 1 {
		t.Errorf("expected one deduplicated sid, got %v", got)
	}
}

func TestNearbyVectorsCollideFarOnesDoNot(t *testing.T) {
	const dim = 1024
	ix := newTestIndex(t, dim, 24, 12)
	rng := rand.New(rand.NewSource(3))
	base := randomVec(rng, dim)
	near := corrupt(rng, base, dim/50) // 98% similar
	far := randomVec(rng, dim)         // ~50% similar
	ix.Insert(near, 1)
	ix.Insert(far, 2)
	got := query(ix, base)
	if !slices.Contains(got, 1) {
		t.Error("vector at similarity 0.98 not retrieved")
	}
	if slices.Contains(got, 2) {
		t.Error("vector at similarity 0.5 retrieved (filter too loose for this r,l)")
	}
}

// TestEmpiricalCollisionMatchesFormula compares measured collision rates
// with p_{r,l}(s) across the similarity spectrum.
func TestEmpiricalCollisionMatchesFormula(t *testing.T) {
	const dim = 2048
	const r, l = 8, 4
	rng := rand.New(rand.NewSource(4))
	for _, sim := range []float64{0.95, 0.8, 0.6} {
		flips := int((1 - sim) * dim)
		collided := 0
		const trials = 60
		for trial := 0; trial < trials; trial++ {
			ix, err := newIndex(0, Options{Code: bitCode(t), K: dim, Tables: l, Seed: int64(trial), ExpectedEntries: 4}, r)
			if err != nil {
				t.Fatal(err)
			}
			base := randomVec(rng, dim)
			other := corrupt(rng, base, flips)
			ix.Insert(other, 1)
			if res := query(ix, base); len(res) == 1 {
				collided++
			}
		}
		got := float64(collided) / trials
		want := lsh.CollisionProb(sim, r, l)
		if diff := got - want; diff > 0.25 || diff < -0.25 {
			t.Errorf("sim=%.2f: empirical %.2f vs formula %.2f", sim, got, want)
		}
	}
}

func TestWideKeysBeyond64Bits(t *testing.T) {
	// r > 64 exercises the chunk-folding key path.
	const dim = 4096
	ix := newTestIndex(t, dim, 150, 4)
	rng := rand.New(rand.NewSource(6))
	v := randomVec(rng, dim)
	w := randomVec(rng, dim)
	ix.Insert(v, 1)
	ix.Insert(w, 2)
	got := query(ix, v)
	if slices.Contains(got, 2) {
		t.Error("unrelated vector collided on a 150-bit sample")
	}
	if !slices.Contains(got, 1) {
		t.Error("identical vector missed with wide keys")
	}
}

func TestEntries(t *testing.T) {
	ix := newTestIndex(t, 64, 4, 3)
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 10; i++ {
		ix.Insert(randomVec(rng, 64), storage.SID(i))
	}
	if got, want := ix.Entries(), 10*3; got != want {
		t.Errorf("Entries = %d, want %d", got, want)
	}
}

func TestDelete(t *testing.T) {
	ix := newTestIndex(t, 256, 10, 5)
	rng := rand.New(rand.NewSource(11))
	v, w := randomVec(rng, 256), randomVec(rng, 256)
	ix.Insert(v, 1)
	ix.Insert(w, 2)
	if removed := ix.Delete(v, 1); removed != 5 {
		t.Errorf("Delete removed %d entries, want one per table (5)", removed)
	}
	// w may still collide with v by chance on loose parameters; only sid 1
	// is forbidden.
	if slices.Contains(query(ix, v), 1) {
		t.Error("deleted sid still retrievable")
	}
	if res := query(ix, w); len(res) != 1 || res[0] != 2 {
		t.Errorf("unrelated vector disturbed: %v", res)
	}
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

// TestProbeMatchesReference checks Probe's bitset against the reference
// union, for both kinds: every table's colliding sids (stored key equal to
// the probe key, decided from the vectors themselves) concatenated and
// sort-deduplicated. A reused, cleared bitset must not grow once warm.
func TestProbeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vecs := make([][]uint64, 50)
	for i := range vecs {
		vecs[i] = randomVec(rng, 256)
	}
	var marks []uint64
	for _, kind := range []Kind{Similar, Dissimilar} {
		ix, err := newIndex(0, Options{Kind: kind, Code: bitCode(t), K: 256, Tables: 6, Seed: 5, ExpectedEntries: 100}, 8)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range vecs {
			ix.Insert(v, storage.SID(i))
		}
		for i, q := range vecs {
			probe := ix.AppendProbeKeys(q, nil)
			var raw []storage.SID
			for tab, key := range probe {
				for sid, v := range vecs {
					if ix.Key(tab, v, 0) == key {
						raw = append(raw, storage.SID(sid))
					}
				}
			}
			want := dedupe(raw)
			clear(marks)
			marks = ix.Probe(q, nil, marks)
			if got := hashtable.AppendMarked(nil, marks); !slices.Equal(got, want) {
				t.Fatalf("%v query %d: %v, want %v", kind, i, got, want)
			}
		}
	}
	if len(marks) != (len(vecs)+63)/64 {
		t.Fatalf("bitset has %d words for %d sids", len(marks), len(vecs))
	}
}
