package filter

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/storage"
)

// bitCode is the identity code on 1-bit coordinates: a test vector of D
// bits is D coordinates of 0 or 1.
func bitCode(t *testing.T) Code {
	t.Helper()
	c, err := NewIdentity(1)
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

func corrupt(rng *rand.Rand, v []uint64, flips int) []uint64 {
	out := slices.Clone(v)
	for i := 0; i < flips; i++ {
		out[rng.Intn(len(v))] ^= 1
	}
	return out
}

func complement(v []uint64) []uint64 {
	out := make([]uint64, len(v))
	for i, b := range v {
		out[i] = b ^ 1
	}
	return out
}

func newFI(t *testing.T, kind Kind, threshold float64, dim, tables int) *Index {
	t.Helper()
	ix, err := New(0, Options{
		Kind: kind, Threshold: threshold, Code: bitCode(t), K: dim, Tables: tables,
		Seed: 11, ExpectedEntries: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestNewValidation(t *testing.T) {
	code := bitCode(t)
	if _, err := New(0, Options{Threshold: 0, Code: code, K: 100, Tables: 2}); err == nil {
		t.Error("threshold 0 accepted")
	}
	if _, err := New(0, Options{Threshold: 1, Code: code, K: 100, Tables: 2}); err == nil {
		t.Error("threshold 1 accepted")
	}
	if _, err := New(0, Options{Threshold: 0.5, Code: code, K: 100, Tables: 0}); err == nil {
		t.Error("0 tables accepted")
	}
	if _, err := New(0, Options{Threshold: 0.5, K: 100, Tables: 2}); err == nil {
		t.Error("nil code accepted")
	}
	for _, th := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, kind := range []Kind{Similar, Dissimilar} {
			if _, err := New(0, Options{Kind: kind, Threshold: th, Code: code, K: 100, Tables: 2}); err == nil {
				t.Errorf("%v threshold %g accepted", kind, th)
			}
		}
	}
}

// TestNewIndexValidation checks the sampler's own bounds, below the
// threshold-to-r solve that New runs first.
func TestNewIndexValidation(t *testing.T) {
	code := bitCode(t)
	if _, err := newIndex(0, Options{K: 10, Tables: 1}, 1); err == nil {
		t.Error("nil code accepted")
	}
	if _, err := newIndex(0, Options{Code: code, K: 0, Tables: 1}, 1); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := newIndex(0, Options{Code: code, K: 10, Tables: 1}, 11); err == nil {
		t.Error("r>dim accepted")
	}
	if _, err := newIndex(0, Options{Code: code, K: 10, Tables: 1}, 0); err == nil {
		t.Error("r=0 accepted")
	}
	if _, err := newIndex(0, Options{Code: code, K: 10, Tables: 0}, 2); err == nil {
		t.Error("l=0 accepted")
	}
}

func TestKindString(t *testing.T) {
	if Similar.String() != "SFI" || Dissimilar.String() != "DFI" {
		t.Error("kind strings wrong")
	}
}

func TestSFIRetrievesSimilar(t *testing.T) {
	const dim = 2048
	sfi := newFI(t, Similar, 0.85, dim, 12)
	rng := rand.New(rand.NewSource(1))
	q := randomVec(rng, dim)
	near := corrupt(rng, q, dim/20) // similarity 0.95 > threshold
	far := randomVec(rng, dim)      // similarity ~0.5 < threshold
	sfi.Insert(near, 1)
	sfi.Insert(far, 2)
	got := sfi.Vector(q, nil)
	hasNear, hasFar := false, false
	for _, sid := range got {
		if sid == 1 {
			hasNear = true
		}
		if sid == 2 {
			hasFar = true
		}
	}
	if !hasNear {
		t.Error("similar vector not in SimVector")
	}
	if hasFar {
		t.Error("dissimilar vector in SimVector")
	}
}

func TestDFIRetrievesDissimilar(t *testing.T) {
	const dim = 2048
	// DFI at Hamming threshold 0.6: retrieve vectors at similarity <= 0.6.
	dfi := newFI(t, Dissimilar, 0.6, dim, 12)
	rng := rand.New(rand.NewSource(2))
	q := randomVec(rng, dim)
	near := corrupt(rng, q, dim/20) // similarity 0.95: should NOT be returned
	far := complement(q)            // similarity 0: strongly dissimilar
	dfi.Insert(near, 1)
	dfi.Insert(far, 2)
	got := dfi.Vector(q, nil)
	hasNear, hasFar := false, false
	for _, sid := range got {
		if sid == 1 {
			hasNear = true
		}
		if sid == 2 {
			hasFar = true
		}
	}
	if !hasFar {
		t.Error("dissimilar vector not in DissimVector")
	}
	if hasNear {
		t.Error("similar vector in DissimVector")
	}
}

// TestTheorem2Duality: a DFI(s*) must behave exactly like an SFI(1-s*)
// probed with the complemented query. Built from the same seed, the two
// sample the same bits, and every probe returns the same sids.
func TestTheorem2Duality(t *testing.T) {
	const dim = 512
	dfi := newFI(t, Dissimilar, 0.3, dim, 8)
	sfiDual := newFI(t, Similar, 0.7, dim, 8)
	if dfi.SampledBits() != sfiDual.SampledBits() {
		t.Fatalf("DFI samples %d bits, dual SFI %d", dfi.SampledBits(), sfiDual.SampledBits())
	}
	rng := rand.New(rand.NewSource(4))
	vecs := make([][]uint64, 40)
	for i := range vecs {
		vecs[i] = randomVec(rng, dim)
		if i%2 == 1 {
			vecs[i] = corrupt(rng, complement(vecs[i-1]), dim/20)
		}
		dfi.Insert(vecs[i], storage.SID(i))
		sfiDual.Insert(vecs[i], storage.SID(i))
	}
	hits := 0
	for i, q := range vecs {
		got, want := dfi.Vector(q, nil), sfiDual.Vector(complement(q), nil)
		if !slices.Equal(got, want) {
			t.Fatalf("query %d: DFI %v, dual SFI on the complement %v", i, got, want)
		}
		hits += len(got)
	}
	if hits == 0 {
		t.Fatal("no probe returned anything: the comparison is vacuous")
	}
}

func TestAccessors(t *testing.T) {
	sfi := newFI(t, Similar, 0.8, 256, 6)
	if sfi.Kind() != Similar {
		t.Error("Kind wrong")
	}
	if sfi.Threshold() != 0.8 {
		t.Error("Threshold wrong")
	}
	if sfi.Tables() != 6 {
		t.Errorf("Tables = %d", sfi.Tables())
	}
	if sfi.SampledBits() < 1 {
		t.Errorf("SampledBits = %d", sfi.SampledBits())
	}
	rng := rand.New(rand.NewSource(5))
	sfi.Insert(randomVec(rng, 256), 1)
	if sfi.Entries() != 6 {
		t.Errorf("Entries = %d, want one per table", sfi.Entries())
	}
}

func TestRClampedToDim(t *testing.T) {
	// A very tight threshold with many tables can push r beyond dim; the
	// index must clamp rather than fail.
	ix, err := New(0, Options{
		Kind: Similar, Threshold: 0.99, Code: bitCode(t), K: 16, Tables: 64,
		Seed: 1, ExpectedEntries: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ix.SampledBits() > 16 {
		t.Errorf("r = %d exceeds dimension", ix.SampledBits())
	}
}

func TestIOCharged(t *testing.T) {
	sfi := newFI(t, Similar, 0.8, 256, 4)
	rng := rand.New(rand.NewSource(6))
	v := randomVec(rng, 256)
	sfi.Insert(v, 1)
	var io storage.Counter
	sfi.Vector(v, &io)
	if io.Rand() < 4 {
		t.Errorf("charged %d reads, want >= 4 (one per table)", io.Rand())
	}
}

// TestProbeChargesIO checks the unflipped probe under the threshold solve:
// one bucket read per table, each at least one page.
func TestProbeChargesIO(t *testing.T) {
	ix := newTestIndex(t, 128, 8, 5)
	rng := rand.New(rand.NewSource(7))
	v := randomVec(rng, 128)
	ix.Insert(v, 1)
	var io storage.Counter
	ix.Probe(v, &io, nil)
	if io.Rand() < int64(ix.Tables()) {
		t.Errorf("recorded %d random reads, want >= %d", io.Rand(), ix.Tables())
	}
}
