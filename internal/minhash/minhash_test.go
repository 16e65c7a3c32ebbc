package minhash

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/set"
)

func TestNewFamilyValidation(t *testing.T) {
	if _, err := NewFamily(0, 1); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := NewFamily(-5, 1); err == nil {
		t.Error("negative k accepted")
	}
}

func TestFamilyDeterministic(t *testing.T) {
	f1, _ := NewFamily(16, 99)
	f2, _ := NewFamily(16, 99)
	s := set.New(1, 5, 9, 200)
	a, b := f1.Sign(s), f2.Sign(s)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different signature at %d", i)
		}
	}
	f3, _ := NewFamily(16, 100)
	c := f3.Sign(s)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical signatures")
	}
}

func TestSignIdenticalSets(t *testing.T) {
	f, _ := NewFamily(32, 7)
	a := f.Sign(set.New(3, 1, 4, 1, 5))
	b := f.Sign(set.New(5, 4, 3, 1))
	est, err := Estimate(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if est != 1 {
		t.Errorf("identical sets estimate = %g, want 1", est)
	}
}

func TestSignDisjointSets(t *testing.T) {
	f, _ := NewFamily(64, 7)
	a := f.Sign(set.New(1, 2, 3, 4, 5))
	b := f.Sign(set.New(100, 200, 300, 400))
	est, err := Estimate(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Disjoint small sets can still collide per coordinate with tiny
	// probability; allow a couple of agreements.
	if est > 0.1 {
		t.Errorf("disjoint sets estimate = %g, want ~0", est)
	}
}

func TestEmptySetSignature(t *testing.T) {
	f, _ := NewFamily(8, 3)
	sig := f.Sign(set.Set{})
	for i, v := range sig {
		if v != ^uint64(0) {
			t.Errorf("coordinate %d = %d, want all-max", i, v)
		}
	}
}

func TestEstimateValidation(t *testing.T) {
	if _, err := Estimate(Signature{1, 2}, Signature{1}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Estimate(Signature{}, Signature{}); err == nil {
		t.Error("empty signatures accepted")
	}
}

// TestUnbiasedEstimator verifies the core Section 3.1 claim: the expected
// agreement fraction equals the Jaccard similarity. We average over many
// independent families to beat sampling noise.
func TestUnbiasedEstimator(t *testing.T) {
	cases := []struct {
		a, b []set.Elem
	}{
		{[]set.Elem{1, 2, 3, 4}, []set.Elem{3, 4, 5, 6}},                                   // sim 1/3
		{[]set.Elem{1, 2, 3, 4, 5, 6, 7, 8, 9}, []set.Elem{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}}, // 0.9
		{[]set.Elem{10, 20}, []set.Elem{20, 30, 40}},                                       // 0.25
	}
	for _, tc := range cases {
		sa, sb := set.New(tc.a...), set.New(tc.b...)
		want := sa.Jaccard(sb)
		total, n := 0.0, 0
		for seed := int64(0); seed < 40; seed++ {
			f, _ := NewFamily(50, seed)
			est, err := Estimate(f.Sign(sa), f.Sign(sb))
			if err != nil {
				t.Fatal(err)
			}
			total += est
			n++
		}
		got := total / float64(n)
		if math.Abs(got-want) > 0.05 {
			t.Errorf("mean estimate %.3f, true similarity %.3f", got, want)
		}
	}
}

// TestEstimatorConcentration checks the Chernoff-style concentration: with
// k = 400 coordinates, estimates should rarely deviate more than 0.15.
func TestEstimatorConcentration(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f, _ := NewFamily(400, 5)
	bad := 0
	const trials = 30
	for trial := 0; trial < trials; trial++ {
		a := randomElems(rng, 50)
		b := mutate(rng, a, 15)
		sa, sb := set.New(a...), set.New(b...)
		want := sa.Jaccard(sb)
		est, err := Estimate(f.Sign(sa), f.Sign(sb))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(est-want) > 0.15 {
			bad++
		}
	}
	if bad > 2 {
		t.Errorf("%d/%d estimates deviated by more than 0.15", bad, trials)
	}
}

func randomElems(rng *rand.Rand, n int) []set.Elem {
	out := make([]set.Elem, n)
	for i := range out {
		out[i] = set.Elem(rng.Intn(10000))
	}
	return out
}

func mutate(rng *rand.Rand, src []set.Elem, k int) []set.Elem {
	out := append([]set.Elem(nil), src...)
	for i := 0; i < k && i < len(out); i++ {
		out[rng.Intn(len(out))] = set.Elem(rng.Intn(10000))
	}
	return out
}

func TestTruncate(t *testing.T) {
	sig := Signature{0xABCD, 0xFF00}
	if got := sig.Truncate(0, 8); got != 0xCD {
		t.Errorf("Truncate(0,8) = %#x, want 0xCD", got)
	}
	if got := sig.Truncate(1, 8); got != 0x00 {
		t.Errorf("Truncate(1,8) = %#x, want 0", got)
	}
	if got := sig.Truncate(0, 16); got != 0xABCD {
		t.Errorf("Truncate(0,16) = %#x", got)
	}
}

func TestAgreeBound(t *testing.T) {
	// Bound decreases with k and eps, stays in (0, 2].
	if AgreeBound(100, 0.1) <= AgreeBound(200, 0.1) {
		t.Error("bound not decreasing in k")
	}
	if AgreeBound(100, 0.1) <= AgreeBound(100, 0.2) {
		t.Error("bound not decreasing in eps")
	}
	if b := AgreeBound(1, 0.0); b != 2 {
		t.Errorf("AgreeBound(1,0) = %g, want 2", b)
	}
}

func TestMulmod61(t *testing.T) {
	// Against big-number reference for values near the modulus.
	const p = uint64(mersenne61)
	cases := [][2]uint64{
		{0, 0}, {1, 1}, {p - 1, p - 1}, {p - 1, 2}, {123456789, 987654321},
		{1 << 60, 1 << 60}, {p - 2, p - 3},
	}
	for _, c := range cases {
		got := mulmod61(c[0], c[1])
		want := refMulMod(c[0], c[1], p)
		if got != want {
			t.Errorf("mulmod61(%d, %d) = %d, want %d", c[0], c[1], got, want)
		}
	}
	f := func(a, b uint64) bool {
		a %= p
		b %= p
		return mulmod61(a, b) == refMulMod(a, b, p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// refMulMod is a slow but obviously correct modular multiply (Russian
// peasant / double-and-add).
func refMulMod(a, b, m uint64) uint64 {
	var res uint64
	a %= m
	for b > 0 {
		if b&1 == 1 {
			res = (res + a) % m
		}
		a = (a * 2) % m
		b >>= 1
	}
	return res
}

func TestPermutationIsBijectiveOnSample(t *testing.T) {
	// a != 0 mod p guarantees injectivity of x → ax+b; verify no
	// collisions across a sample of distinct inputs.
	f, _ := NewFamily(4, 123)
	seen := make(map[uint64]set.Elem)
	for e := set.Elem(0); e < 5000; e++ {
		v := f.perm(0, e)
		if prev, dup := seen[v]; dup {
			t.Fatalf("perm collision: elems %d and %d both map to %d", prev, e, v)
		}
		seen[v] = e
	}
}

func TestSignMatchesPerCoordinateMin(t *testing.T) {
	f, _ := NewFamily(8, 55)
	s := set.New(10, 20, 30, 40, 50)
	sig := f.Sign(s)
	for i := 0; i < f.K(); i++ {
		min := ^uint64(0)
		for _, e := range s.Elems() {
			if v := f.perm(i, e); v < min {
				min = v
			}
		}
		if sig[i] != min {
			t.Errorf("coordinate %d: Sign %d != min %d", i, sig[i], min)
		}
	}
}

func TestOptionsValidate(t *testing.T) {
	if err := (Options{K: 0, Bits: 8}).Validate(); err == nil {
		t.Error("K=0 accepted")
	}
	if err := (Options{K: 4, Bits: 25}).Validate(); err == nil {
		t.Error("Bits=25 accepted (hadamard limit)")
	}
}

func TestIdenticalSetsIdenticalVectors(t *testing.T) {
	// The embedded vector is a function of the signature, so identical
	// sets embed identically when they sign identically.
	f, err := NewFamily(16, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := f.Sign(set.New(1, 2, 3)), f.Sign(set.New(3, 2, 1, 1)); !slices.Equal(a, b) {
		t.Error("identical sets signed differently")
	}
}
