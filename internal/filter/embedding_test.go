package filter

import (
	"math"
	"math/bits"
	"testing"

	"repro/internal/minhash"
	"repro/internal/set"
)

// embedding is the S → V → H pipeline of Section 3 under test: k min-hash
// permutations and the Hadamard code over b-bit truncated coordinates.
type embedding struct {
	perms *minhash.Perms
	code  Code
}

func mkEmbedding(t *testing.T, k, b int, seed int64) embedding {
	t.Helper()
	perms, err := minhash.NewFamily(k, seed)
	if err != nil {
		t.Fatal(err)
	}
	code, err := NewHadamard(b)
	if err != nil {
		t.Fatal(err)
	}
	return embedding{perms, code}
}

// TestDimension pins D = k·m: K signature coordinates, each a codeword of
// m = 2^b bits.
func TestDimension(t *testing.T) {
	e := mkEmbedding(t, 10, 6, 1)
	if e.perms.K() != 10 || e.code.Length() != 64 {
		t.Errorf("K=%d m=%d, want 10, 64", e.perms.K(), e.code.Length())
	}
}

// hammingDistance is the distance between the D-bit embeddings of two
// signatures, read bit by bit through the code's columns: bit p is
// parity(sig[p/m] & Column(p%m)).
func hammingDistance(e embedding, a, b minhash.Signature) int {
	m := e.code.Length()
	d := 0
	for p := 0; p < e.perms.K()*m; p++ {
		col := e.code.Column(p % m)
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
			e := mkEmbedding(t, 80, 8, seed)
			d := hammingDistance(e, e.perms.Sign(sa), e.perms.Sign(sb))
			sum += float64(d) / float64(e.perms.K()*e.code.Length())
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
	o := minhash.DefaultOptions()
	if o.K != 100 || o.Bits != 8 {
		t.Errorf("defaults = k=%d b=%d, want paper's k=100 b=8", o.K, o.Bits)
	}
	e := mkEmbedding(t, o.K, o.Bits, o.Seed)
	if d := e.perms.K() * e.code.Length(); d != 100*256 {
		t.Errorf("default dimension = %d, want 25600", d)
	}
}
