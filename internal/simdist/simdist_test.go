package simdist

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/minhash"
	"repro/internal/set"
)

func TestHistogramAddMass(t *testing.T) {
	h := NewHistogram(10)
	h.Add(0.05, 1) // bin 0
	h.Add(0.15, 2) // bin 1
	h.Add(0.95, 3) // bin 9
	h.Add(1.0, 4)  // clamped into bin 9
	if h.Total() != 10 {
		t.Errorf("Total = %g", h.Total())
	}
	if got := h.Mass(0, 0.1); math.Abs(got-1) > 1e-9 {
		t.Errorf("Mass[0,0.1] = %g", got)
	}
	if got := h.Mass(0.9, 1); math.Abs(got-7) > 1e-9 {
		t.Errorf("Mass[0.9,1] = %g", got)
	}
	if got := h.Mass(0, 1); math.Abs(got-10) > 1e-9 {
		t.Errorf("Mass[0,1] = %g", got)
	}
}

func TestMassPartialBins(t *testing.T) {
	h := NewHistogram(10)
	h.Add(0.05, 10) // bin [0, 0.1)
	// Half the bin → half the mass (linear interpolation).
	if got := h.Mass(0, 0.05); math.Abs(got-5) > 1e-9 {
		t.Errorf("half-bin mass = %g, want 5", got)
	}
	if got := h.Mass(0.025, 0.075); math.Abs(got-5) > 1e-9 {
		t.Errorf("interior half-bin mass = %g, want 5", got)
	}
}

func TestMassEdgeCases(t *testing.T) {
	h := NewHistogram(10)
	h.Add(0.5, 1)
	if h.Mass(0.9, 0.1) != 0 {
		t.Error("inverted range should have zero mass")
	}
	if got := h.Mass(-5, 5); math.Abs(got-1) > 1e-9 {
		t.Error("clamping failed")
	}
	h.Add(-0.5, 1) // clamps to 0
	h.Add(1.5, 1)  // clamps to 1
	if got := h.Mass(0, 1); math.Abs(got-3) > 1e-9 {
		t.Errorf("clamped adds lost mass: %g", got)
	}
}

func TestIntegrateConstantIsMass(t *testing.T) {
	h := NewHistogram(50)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		h.Add(rng.Float64(), 1)
	}
	one := func(s float64) float64 { return 1 }
	if got, want := h.Integrate(0.2, 0.8, one), h.Mass(0.2, 0.8); math.Abs(got-want) > 1e-6 {
		t.Errorf("∫1·D = %g, Mass = %g", got, want)
	}
}

func TestIntegrateLinear(t *testing.T) {
	// All mass at one bin: integral of f should be f(bin midpoint)·mass.
	h := NewHistogram(100)
	h.Add(0.505, 4)
	got := h.Integrate(0, 1, func(s float64) float64 { return s })
	if math.Abs(got-0.505*4) > 0.01 {
		t.Errorf("∫s·D = %g, want ≈ %g", got, 0.505*4)
	}
}

func TestQuantile(t *testing.T) {
	h := NewHistogram(100)
	for i := 0; i < 100; i++ {
		h.Add(float64(i)/100+0.005, 1)
	}
	if got := h.Quantile(0.5); math.Abs(got-0.5) > 0.02 {
		t.Errorf("median = %g", got)
	}
	if got := h.Quantile(0); got != 0 {
		t.Errorf("Quantile(0) = %g", got)
	}
	if got := h.Quantile(1); got != 1 {
		t.Errorf("Quantile(1) = %g", got)
	}
	if got := h.Quantile(0.25); math.Abs(got-0.25) > 0.02 {
		t.Errorf("Q1 = %g", got)
	}
}

func TestQuantileEmptyUniformFallback(t *testing.T) {
	h := NewHistogram(10)
	if got := h.Quantile(0.3); got != 0.3 {
		t.Errorf("empty quantile = %g, want uniform fallback", got)
	}
}

func TestEquidepth(t *testing.T) {
	h := NewHistogram(200)
	rng := rand.New(rand.NewSource(2))
	// Skewed distribution: mass concentrated near 0 like real set data.
	for i := 0; i < 10000; i++ {
		h.Add(math.Abs(rng.NormFloat64())*0.1, 1)
	}
	cuts, err := h.Equidepth(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(cuts) != 3 {
		t.Fatalf("got %d cuts", len(cuts))
	}
	// Each interval must hold ≈ 1/4 of the mass.
	bounds := append(append([]float64{0}, cuts...), 1)
	for i := 0; i+1 < len(bounds); i++ {
		frac := h.Mass(bounds[i], bounds[i+1]) / h.Total()
		if math.Abs(frac-0.25) > 0.05 {
			t.Errorf("interval %d holds %.3f of mass, want 0.25", i, frac)
		}
	}
	if _, err := h.Equidepth(0); err == nil {
		t.Error("k=0 accepted")
	}
}

// TestEquidepthStrictlyIncreasing pins that Equidepth never returns two
// equal cuts, so no caller needs to drop repeats. Consecutive targets
// differ by total/k and no bin holds more than the total, so consecutive
// quantiles differ by at least 1/(k·bins) — far above rounding for k up
// to 1 024 — and an empty histogram returns i/k. Histograms here are
// random: sparse, spiky, dense and empty, with weights over twelve orders
// of magnitude.
func TestEquidepthStrictlyIncreasing(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		bins := 1 + rng.Intn(1000)
		h := NewHistogram(bins)
		switch trial % 4 {
		case 0: // empty
		case 1: // one spike
			h.Add(rng.Float64(), 1+rng.Float64())
		default: // sparse or dense, weights 1e-6 .. 1e6
			n := 1 + rng.Intn(2*bins)
			for i := 0; i < n; i++ {
				h.Add(rng.Float64(), math.Pow(10, 12*rng.Float64()-6))
			}
		}
		k := 1 + rng.Intn(1024)
		cuts, err := h.Equidepth(k)
		if err != nil {
			t.Fatal(err)
		}
		if len(cuts) != k-1 {
			t.Fatalf("trial %d (%d bins, k %d): %d cuts, want %d", trial, bins, k, len(cuts), k-1)
		}
		minGap := 1 / (float64(k) * float64(bins))
		for i := 1; i < len(cuts); i++ {
			if gap := cuts[i] - cuts[i-1]; !(gap >= minGap*(1-1e-9)) {
				t.Fatalf("trial %d (%d bins, k %d): cuts %d and %d are %g apart, want at least %g",
					trial, bins, k, i-1, i, gap, minGap)
			}
		}
	}
}

func TestDelta(t *testing.T) {
	h := NewHistogram(100)
	for i := 0; i < 1000; i++ {
		h.Add(0.1, 1)
		h.Add(0.9, 1)
	}
	d := h.Delta()
	below, above := h.Mass(0, d), h.Mass(d, 1)
	if math.Abs(below-above) > h.Total()*0.05 {
		t.Errorf("delta %g splits mass %g/%g", d, below, above)
	}
}

func TestClone(t *testing.T) {
	h := NewHistogram(10)
	h.Add(0.5, 2)
	c := h.Clone()
	c.Add(0.5, 3)
	if h.Total() != 2 || c.Total() != 5 {
		t.Error("clone aliases original")
	}
}

func TestExactPairs(t *testing.T) {
	sets := []set.Set{
		set.New(1, 2, 3),
		set.New(1, 2, 3),       // sim 1 with first
		set.New(100, 200, 300), // sim 0 with both
	}
	h := ExactPairs(sets, 10)
	if h.Total() != 3 { // C(3,2) pairs
		t.Fatalf("Total = %g", h.Total())
	}
	if got := h.Mass(0.9, 1); math.Abs(got-1) > 1e-9 {
		t.Errorf("high-sim mass = %g, want 1", got)
	}
	if got := h.Mass(0, 0.1); math.Abs(got-2) > 1e-9 {
		t.Errorf("zero-sim mass = %g, want 2", got)
	}
}

func TestSamplePairsApproximatesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sets := make([]set.Set, 120)
	for i := range sets {
		elems := make([]set.Elem, 20)
		for j := range elems {
			elems[j] = set.Elem(rng.Intn(200))
		}
		sets[i] = set.New(elems...)
	}
	exact := ExactPairs(sets, 20)
	approx, err := SamplePairs(sets, 4000, 20, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Compare normalized masses on a few ranges.
	for _, r := range [][2]float64{{0, 0.2}, {0.2, 0.5}, {0.5, 1}} {
		e := exact.Mass(r[0], r[1]) / exact.Total()
		a := approx.Mass(r[0], r[1]) / approx.Total()
		if math.Abs(e-a) > 0.08 {
			t.Errorf("range %v: exact %.3f vs sampled %.3f", r, e, a)
		}
	}
}

func TestSamplePairsValidation(t *testing.T) {
	if _, err := SamplePairs([]set.Set{set.New(1)}, 10, 10, 1); err == nil {
		t.Error("single-set collection accepted")
	}
	if _, err := SamplePairs([]set.Set{set.New(1), set.New(2)}, 0, 10, 1); err == nil {
		t.Error("zero sample accepted")
	}
}

func TestSampleSignaturePairs(t *testing.T) {
	fam, err := minhash.NewFamily(128, 9)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	sets := make([]set.Set, 100)
	sigs := make([]minhash.Signature, 100)
	for i := range sets {
		elems := make([]set.Elem, 30)
		for j := range elems {
			elems[j] = set.Elem(rng.Intn(300))
		}
		sets[i] = set.New(elems...)
		sigs[i] = fam.Sign(sets[i])
	}
	exact := ExactPairs(sets, 20)
	approx, err := SampleSignaturePairs(sigs, 4000, 20, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range [][2]float64{{0, 0.25}, {0.25, 1}} {
		e := exact.Mass(r[0], r[1]) / exact.Total()
		a := approx.Mass(r[0], r[1]) / approx.Total()
		if math.Abs(e-a) > 0.12 {
			t.Errorf("range %v: exact %.3f vs signature-sampled %.3f", r, e, a)
		}
	}
	if _, err := SampleSignaturePairs(sigs[:1], 10, 10, 1); err == nil {
		t.Error("single signature accepted")
	}
	if _, err := SampleSignaturePairs(sigs, -1, 10, 1); err == nil {
		t.Error("negative sample accepted")
	}
}

func TestDefaultBins(t *testing.T) {
	if NewHistogram(0).Bins() != DefaultBins {
		t.Error("default bins not applied")
	}
	if NewHistogram(-3).Bins() != DefaultBins {
		t.Error("negative bins not defaulted")
	}
}
