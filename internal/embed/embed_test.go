package embed

import (
	"math"
	"testing"

	"repro/internal/ecc"
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

func TestDimension(t *testing.T) {
	e := mkEmbedder(t, 10, 6, 1)
	if got, want := e.Dimension(), 10*64; got != want {
		t.Errorf("Dimension = %d, want %d", got, want)
	}
	if e.K() != 10 || e.CodeLength() != 64 {
		t.Errorf("K=%d m=%d", e.K(), e.CodeLength())
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{K: 0, Bits: 8}); err == nil {
		t.Error("K=0 accepted")
	}
	if _, err := New(Options{K: 4, Bits: 25}); err == nil {
		t.Error("Bits=25 accepted (hadamard limit)")
	}
	code, _ := ecc.NewHadamard(4)
	if _, err := New(Options{K: 4, Bits: 8, Code: code}); err == nil {
		t.Error("code/Bits mismatch accepted")
	}
}

func TestIdenticalSetsIdenticalVectors(t *testing.T) {
	e := mkEmbedder(t, 16, 8, 3)
	a := e.Embed(set.New(1, 2, 3))
	b := e.Embed(set.New(3, 2, 1, 1))
	if !a.Equal(b) {
		t.Error("identical sets embedded differently")
	}
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
			d := e.Embed(sa).HammingDistance(e.Embed(sb))
			sum += float64(d) / float64(e.Dimension())
		}
		got := sum / seeds
		if math.Abs(got-want) > 0.03 {
			t.Errorf("sim %.3f: mean relative distance %.4f, want %.4f", s, got, want)
		}
	}
}

// TestLazyBitMatchesMaterialized pins the addressing the filter indices'
// key gather relies on: bit p of the embedded vector is Code().Bit of the
// untruncated signature coordinate p/m at codeword bit p%m.
func TestLazyBitMatchesMaterialized(t *testing.T) {
	e := mkEmbedder(t, 12, 7, 9)
	s := set.New(10, 20, 30, 40)
	sig := e.Sign(s)
	full := e.EmbedSignature(sig)
	m := e.CodeLength()
	for pos := 0; pos < e.Dimension(); pos++ {
		if got, want := e.Code().Bit(sig[pos/m], pos%m), full.Bit(pos); got != want {
			t.Fatalf("pos %d: lazy %d, materialized %d", pos, got, want)
		}
	}
}

func TestScaleConversions(t *testing.T) {
	for _, s := range []float64{0, 0.25, 0.5, 0.9, 1} {
		sh := HammingFromJaccard(s)
		if got := JaccardFromHamming(sh); math.Abs(got-s) > 1e-12 {
			t.Errorf("roundtrip %g → %g → %g", s, sh, got)
		}
	}
	if HammingFromJaccard(0) != 0.5 {
		t.Error("disjoint sets should land at Hamming similarity 1/2")
	}
	if HammingFromJaccard(1) != 1 {
		t.Error("identical sets should land at Hamming similarity 1")
	}
}

func TestDistanceRange(t *testing.T) {
	e := mkEmbedder(t, 10, 8, 1)
	d1, d2 := e.DistanceRange(0.8, 1.0)
	if d1 != 0 {
		t.Errorf("d1 = %g, want 0 for sigma2=1", d1)
	}
	wantD2 := (1 - 0.8) / 2 * float64(e.Dimension())
	if math.Abs(d2-wantD2) > 1e-9 {
		t.Errorf("d2 = %g, want %g", d2, wantD2)
	}
	if d1 > d2 {
		t.Error("d1 > d2")
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
	if e.Dimension() != 100*256 {
		t.Errorf("default dimension = %d, want 25600", e.Dimension())
	}
}

func TestDistanceRangeMonotone(t *testing.T) {
	// Wider similarity ranges map to wider Hamming distance ranges, and
	// distance bounds stay inside [0, D].
	e := mkEmbedder(t, 16, 8, 2)
	d := float64(e.Dimension())
	for lo := 0.0; lo <= 0.9; lo += 0.1 {
		for hi := lo; hi <= 1.0; hi += 0.1 {
			d1, d2 := e.DistanceRange(lo, hi)
			if d1 < 0 || d2 > d/2+1e-9 || d1 > d2 {
				t.Fatalf("range [%.1f,%.1f]: distances (%g, %g)", lo, hi, d1, d2)
			}
		}
	}
}

func TestSimplexThroughPipeline(t *testing.T) {
	// The pipeline works with the simplex code too (odd-length codewords).
	code, err := ecc.NewSimplex(7)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Options{K: 24, Bits: 7, Seed: 5, Code: code})
	if err != nil {
		t.Fatal(err)
	}
	if e.Dimension() != 24*127 {
		t.Fatalf("dimension = %d", e.Dimension())
	}
	a := set.New(1, 2, 3, 4, 5, 6, 7, 8)
	b := set.New(1, 2, 3, 4, 5, 6, 7, 9)
	sig := e.Sign(a)
	full := e.EmbedSignature(sig)
	for pos := 0; pos < e.Dimension(); pos += 37 {
		if e.Code().Bit(sig[pos/127], pos%127) != full.Bit(pos) {
			t.Fatalf("lazy/materialized mismatch at %d", pos)
		}
	}
	// Identical sets map to identical vectors; near-identical to nearby.
	if !e.Embed(a).Equal(e.Embed(set.New(8, 7, 6, 5, 4, 3, 2, 1))) {
		t.Error("identical sets embedded differently under simplex")
	}
	da := e.Embed(a).HammingDistance(e.Embed(b))
	if da <= 0 || da > e.Dimension()/2+e.CodeLength() {
		t.Errorf("distance %d out of plausible range", da)
	}
}
