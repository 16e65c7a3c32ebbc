package lsh

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ecc"
	"repro/internal/storage"
)

// bitCode is the identity code on 1-bit coordinates: the embedding of k
// coordinates is the k-bit vector of their low bits, so a test vector of
// D bits is D coordinates of 0 or 1.
func bitCode(t testing.TB) ecc.Code {
	t.Helper()
	c, err := ecc.NewIdentity(1)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func randomVec(rng *rand.Rand, n int) []uint64 {
	v := make([]uint64, n)
	for i := range v {
		v[i] = uint64(rng.Intn(2))
	}
	return v
}

// corrupt flips the given number of random bits.
func corrupt(rng *rand.Rand, v []uint64, flips int) []uint64 {
	out := slices.Clone(v)
	for i := 0; i < flips; i++ {
		out[rng.Intn(len(v))] ^= 1
	}
	return out
}

func newTestGroup(t *testing.T, dim, r, l int) *Group {
	t.Helper()
	g, err := NewGroup(0, GroupOptions{
		Code: bitCode(t), K: dim, R: r, L: l, Seed: 5, ExpectedEntries: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewGroupValidation(t *testing.T) {
	code := bitCode(t)
	if _, err := NewGroup(0, GroupOptions{K: 10, R: 1, L: 1}); err == nil {
		t.Error("nil code accepted")
	}
	if _, err := NewGroup(0, GroupOptions{Code: code, K: 0, R: 1, L: 1}); err == nil {
		t.Error("dim=0 accepted")
	}
	if _, err := NewGroup(0, GroupOptions{Code: code, K: 10, R: 11, L: 1}); err == nil {
		t.Error("r>dim accepted")
	}
	if _, err := NewGroup(0, GroupOptions{Code: code, K: 10, R: 2, L: 0}); err == nil {
		t.Error("l=0 accepted")
	}
}

func TestPositionsDistinctSortedInRange(t *testing.T) {
	g := newTestGroup(t, 500, 40, 8)
	for i := 0; i < g.L(); i++ {
		pos := g.Positions(i)
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
	g := newTestGroup(t, 16, 16, 2)
	if len(g.Positions(0)) != 16 {
		t.Errorf("full-dimension sample has %d positions", len(g.Positions(0)))
	}
}

func TestIdenticalVectorsAlwaysCollide(t *testing.T) {
	g := newTestGroup(t, 256, 20, 6)
	rng := rand.New(rand.NewSource(1))
	v := randomVec(rng, 256)
	g.Insert(v, 42)
	got := query(g, v)
	if len(got) != 1 || got[0] != 42 {
		t.Errorf("Query = %v, want [42]", got)
	}
}

func TestQueryDeduplicates(t *testing.T) {
	// The same sid found in several tables must be reported once.
	g := newTestGroup(t, 128, 4, 10)
	rng := rand.New(rand.NewSource(2))
	v := randomVec(rng, 128)
	g.Insert(v, 7)
	got := query(g, v)
	if len(got) != 1 {
		t.Errorf("expected one deduplicated sid, got %v", got)
	}
}

func TestNearbyVectorsCollideFarOnesDoNot(t *testing.T) {
	const dim = 1024
	g := newTestGroup(t, dim, 24, 12)
	rng := rand.New(rand.NewSource(3))
	base := randomVec(rng, dim)
	near := corrupt(rng, base, dim/50) // 98% similar
	far := randomVec(rng, dim)         // ~50% similar
	g.Insert(near, 1)
	g.Insert(far, 2)
	got := query(g, base)
	foundNear, foundFar := false, false
	for _, sid := range got {
		if sid == 1 {
			foundNear = true
		}
		if sid == 2 {
			foundFar = true
		}
	}
	if !foundNear {
		t.Error("vector at similarity 0.98 not retrieved")
	}
	if foundFar {
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
			g, err := NewGroup(0, GroupOptions{
				Code: bitCode(t), K: dim, R: r, L: l, Seed: int64(trial), ExpectedEntries: 4,
			})
			if err != nil {
				t.Fatal(err)
			}
			base := randomVec(rng, dim)
			other := corrupt(rng, base, flips)
			g.Insert(other, 1)
			if res := query(g, base); len(res) == 1 {
				collided++
			}
		}
		got := float64(collided) / trials
		want := CollisionProb(sim, r, l)
		if diff := got - want; diff > 0.25 || diff < -0.25 {
			t.Errorf("sim=%.2f: empirical %.2f vs formula %.2f", sim, got, want)
		}
	}
}

func TestWideKeysBeyond64Bits(t *testing.T) {
	// r > 64 exercises the chunk-folding key path.
	const dim = 4096
	g := newTestGroup(t, dim, 150, 4)
	rng := rand.New(rand.NewSource(6))
	v := randomVec(rng, dim)
	w := randomVec(rng, dim)
	g.Insert(v, 1)
	g.Insert(w, 2)
	got := query(g, v)
	found1 := false
	for _, sid := range got {
		if sid == 1 {
			found1 = true
		}
		if sid == 2 {
			t.Error("unrelated vector collided on a 150-bit sample")
		}
	}
	if !found1 {
		t.Error("identical vector missed with wide keys")
	}
}

func TestQueryChargesIO(t *testing.T) {
	g := newTestGroup(t, 128, 8, 5)
	rng := rand.New(rand.NewSource(7))
	v := randomVec(rng, 128)
	g.Insert(v, 1)
	var io storage.Counter
	g.Query(v, 0, &io, nil)
	// One bucket probe per table, each at least one page.
	if io.Rand() < int64(g.L()) {
		t.Errorf("recorded %d random reads, want >= %d", io.Rand(), g.L())
	}
}

func TestEntries(t *testing.T) {
	g := newTestGroup(t, 64, 4, 3)
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 10; i++ {
		g.Insert(randomVec(rng, 64), storage.SID(i))
	}
	if got, want := g.Entries(), 10*3; got != want {
		t.Errorf("Entries = %d, want %d", got, want)
	}
}

func TestGroupReproducibleBySeed(t *testing.T) {
	a, err := NewGroup(0, GroupOptions{Code: bitCode(t), K: 300, R: 10, L: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewGroup(0, GroupOptions{Code: bitCode(t), K: 300, R: 10, L: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		pa, pb := a.Positions(i), b.Positions(i)
		for j := range pa {
			if pa[j] != pb[j] {
				t.Fatalf("table %d positions differ", i)
			}
		}
	}
}

func TestGroupDelete(t *testing.T) {
	g := newTestGroup(t, 256, 10, 5)
	rng := rand.New(rand.NewSource(11))
	v, w := randomVec(rng, 256), randomVec(rng, 256)
	g.Insert(v, 1)
	g.Insert(w, 2)
	if removed := g.Delete(v, 1); removed != 5 {
		t.Errorf("Delete removed %d entries, want one per table (5)", removed)
	}
	if res := query(g, v); len(res) != 0 {
		// w may still collide by chance on loose parameters; only sid 1
		// is forbidden.
		for _, sid := range res {
			if sid == 1 {
				t.Error("deleted sid still retrievable")
			}
		}
	}
	if res := query(g, w); len(res) != 1 || res[0] != 2 {
		t.Errorf("unrelated vector disturbed: %v", res)
	}
}
