package embed

import (
	"math"
	"math/bits"
	"slices"
	"testing"

	"repro/internal/minhash"
	"repro/internal/set"
)

func mkEmbedder(t *testing.T, k, b int, seed int64) *Embedder {
	t.Helper()
	e, err := New(Options{K: k, Bits: b, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestDimension pins D = k·m: K signature coordinates, each a codeword of
// m = 2^b bits.
func TestDimension(t *testing.T) {
	e := mkEmbedder(t, 10, 6, 1)
	if e.K() != 10 || e.Code().Length() != 64 || e.EmbedBits() != 6 {
		t.Errorf("K=%d m=%d b=%d, want 10, 64, 6", e.K(), e.Code().Length(), e.EmbedBits())
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{K: 0, Bits: 8}); err == nil {
		t.Error("K=0 accepted")
	}
	if _, err := New(Options{K: 4, Bits: 25}); err == nil {
		t.Error("Bits=25 accepted (hadamard limit)")
	}
}

func TestIdenticalSetsIdenticalVectors(t *testing.T) {
	// The embedded vector is a function of the signature, so identical
	// sets embed identically when they sign identically.
	e := mkEmbedder(t, 16, 8, 3)
	if a, b := e.Sign(set.New(1, 2, 3)), e.Sign(set.New(3, 2, 1, 1)); !slices.Equal(a, b) {
		t.Error("identical sets signed differently")
	}
}

// hammingDistance is the distance between the D-bit embeddings of two
// signatures, read bit by bit through the code's columns: bit p is
// parity(sig[p/m] & Column(p%m)).
func hammingDistance(e *Embedder, a, b minhash.Signature) int {
	m := e.Code().Length()
	d := 0
	for p := 0; p < e.K()*m; p++ {
		col := e.Code().Column(p % m)
		d += (bits.OnesCount64(a[p/m]&col) ^ bits.OnesCount64(b[p/m]&col)) & 1
	}
	return d
}

// TestTheorem1 is the central embedding property: for sets with Jaccard
// similarity s, the expected Hamming distance is (1-s)/2·D. Averaged over
// seeds, the measured relative distance must track (1-s)/2.
func TestTheorem1(t *testing.T) {
	pairs := []struct {
		a, b []set.Elem
	}{
		{[]set.Elem{1, 2, 3, 4, 5, 6, 7, 8, 9}, []set.Elem{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}}, // 0.9
		{[]set.Elem{1, 2, 3, 4}, []set.Elem{3, 4, 5, 6}},                                   // 1/3
		{[]set.Elem{1, 2}, []set.Elem{3, 4}},                                               // 0
	}
	for _, pc := range pairs {
		sa, sb := set.New(pc.a...), set.New(pc.b...)
		s := sa.Jaccard(sb)
		want := (1 - s) / 2
		sum := 0.0
		const seeds = 12
		for seed := int64(0); seed < seeds; seed++ {
			e := mkEmbedder(t, 80, 8, seed)
			d := hammingDistance(e, e.Sign(sa), e.Sign(sb))
			sum += float64(d) / float64(e.K()*e.Code().Length())
		}
		got := sum / seeds
		if math.Abs(got-want) > 0.03 {
			t.Errorf("sim %.3f: mean relative distance %.4f, want %.4f", s, got, want)
		}
	}
}

func TestScaleConversions(t *testing.T) {
	if HammingFromJaccard(0) != 0.5 {
		t.Error("disjoint sets should land at Hamming similarity 1/2")
	}
	if HammingFromJaccard(1) != 1 {
		t.Error("identical sets should land at Hamming similarity 1")
	}
	if got := HammingFromJaccard(0.5); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("HammingFromJaccard(0.5) = %g, want 0.75", got)
	}
}

func TestDefaultOptionsMatchPaper(t *testing.T) {
	o := DefaultOptions()
	if o.K != 100 || o.Bits != 8 {
		t.Errorf("defaults = k=%d b=%d, want paper's k=100 b=8", o.K, o.Bits)
	}
	e, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	if d := e.K() * e.Code().Length(); d != 100*256 {
		t.Errorf("default dimension = %d, want 25600", d)
	}
}

// TestSignIntoMatchesSign checks the embedder-level allocation-free signing
// agrees with Sign.
func TestSignIntoMatchesSign(t *testing.T) {
	e := mkEmbedder(t, 12, 6, 9)
	s := set.New(4, 8, 15, 16, 23, 42)
	want := e.Sign(s)
	dst := make([]uint64, e.K())
	e.SignInto(s, dst)
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("coordinate %d: SignInto %d, Sign %d", i, dst[i], want[i])
		}
	}
}
