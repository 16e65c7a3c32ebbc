package optimize

import (
	"encoding/gob"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/filter"
	"repro/internal/simdist"
)

// referenceCapture is the capture model evaluated directly, one Binomial
// average per call: the arithmetic the kernel must reproduce bit for bit.
func referenceCapture(kind filter.Kind, sigma float64, l, k int, s float64) float64 {
	if l < 1 {
		return 0
	}
	r := solveR(kind, sigma, l)
	prob := func(sH float64) float64 {
		x := sH
		if kind == filter.Dissimilar {
			x = 1 - x
		}
		return filter.CollisionProb(x, r, l)
	}
	if k <= 0 {
		return prob(filter.HammingFromJaccard(s))
	}
	return binomialAverage(k, s, func(a int) float64 {
		return prob((1 + float64(a)/float64(k)) / 2)
	})
}

// binomialAverage returns E[f(A)] for A ~ Binomial(k, p), truncating the
// sum to ±6 standard deviations around the mean.
func binomialAverage(k int, p float64, f func(a int) float64) float64 {
	if p <= 0 {
		return f(0)
	}
	if p >= 1 {
		return f(k)
	}
	mean := float64(k) * p
	dev := 6*math.Sqrt(float64(k)*p*(1-p)) + 1
	lo := int(mean - dev)
	if lo < 0 {
		lo = 0
	}
	hi := int(mean + dev)
	if hi > k {
		hi = k
	}
	logPmf := logBinomPmf(k, lo, p)
	ratio := p / (1 - p)
	sum, wsum := 0.0, 0.0
	lp := logPmf
	for a := lo; a <= hi; a++ {
		w := math.Exp(lp)
		sum += w * f(a)
		wsum += w
		lp += math.Log(float64(k-a)/float64(a+1)) + math.Log(ratio)
	}
	if wsum == 0 {
		return f(int(mean))
	}
	return sum / wsum
}

// integrationPoints returns the similarities a 200-bin histogram's
// integrals evaluate a capture curve at when split at sigma: every bin
// midpoint, the midpoints of the two halves of the bin sigma clips, and
// the ends of the scale.
func integrationPoints(sigma float64) []float64 {
	h := simdist.NewHistogram(200)
	for i := 0; i < 200; i++ {
		h.Add((float64(i)+0.5)/200, 1)
	}
	pts := []float64{0, 1}
	record := func(s float64) float64 {
		pts = append(pts, s)
		return 0
	}
	h.Integrate(0, 1, record)
	h.Integrate(0, sigma, record)
	h.Integrate(sigma, 1, record)
	return pts
}

func TestKernelMatchesReference(t *testing.T) {
	sigmas := []float64{0.09038932075952592, 0.3, 0.55, 0.87}
	points := make([][]float64, len(sigmas))
	for i, sigma := range sigmas {
		points[i] = integrationPoints(sigma)
	}
	for _, k := range []int{0, 16, 24, 64, 100} {
		kern := newKernel(k)
		for _, kind := range []filter.Kind{filter.Similar, filter.Dissimilar} {
			for l := 1; l <= 300; l++ {
				i := l % len(sigmas)
				curve := kern.curve(kind, sigmas[i], l)
				for _, s := range points[i] {
					got, want := curve(s), referenceCapture(kind, sigmas[i], l, k, s)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("k=%d kind=%v σ=%g l=%d s=%g: kernel %v, reference %v", k, kind, sigmas[i], l, s, got, want)
					}
				}
			}
		}
	}
}

// benchLattice is the similarity distribution the benchmark's collection
// samples (200 000 pairs): min-hash estimates with k = 64 fall on the
// lattice j/64, 65 of the 200 bins.
var benchLattice = [65]float64{
	7581, 7340, 8167, 8709, 8861, 8731, 7847, 7253, 6035, 6494, 5854, 6119, 5594,
	5486, 5061, 4932, 4468, 4586, 4172, 4319, 4130, 4053, 3653, 3351, 3280, 2906,
	2765, 2598, 3862, 2279, 2420, 1954, 1900, 1881, 1742, 1787, 1565, 3482, 1950,
	1507, 1256, 1234, 1159, 1020, 1195, 844, 2732, 893, 1787, 1228, 540, 595,
	391, 311, 315, 221, 141, 138, 68, 153, 34, 47, 10, 1, 3013,
}

func latticeHist() *simdist.Histogram {
	h := simdist.NewHistogram(200)
	for j, w := range benchLattice {
		h.Add(float64(j)/64, w)
	}
	return h
}

func uniformHist() *simdist.Histogram {
	h := simdist.NewHistogram(200)
	for i := 0; i < 200; i++ {
		h.Add((float64(i)+0.5)/200, 10)
	}
	return h
}

// spikeHist puts all mass at 0: its quantiles clamp onto one another, so
// the Figure 4 loop stops early on collapsed cuts.
func spikeHist() *simdist.Histogram {
	h := simdist.NewHistogram(200)
	h.Add(0, 5000)
	return h
}

// TestBuildPlanPinnedDigests pins BuildPlan's output, gob-encoded and
// hashed with FNV-64a, to the digests the direct evaluation of the capture
// model produced: caching it must not move one bit of any plan.
func TestBuildPlanPinnedDigests(t *testing.T) {
	for _, tc := range []struct {
		name   string
		hist   func() *simdist.Histogram
		opt    Options
		digest uint64
	}{
		{"weblike/k0", webLikeHist, Options{Budget: 100, RecallTarget: 0.5}, 0x1b639c7adc1072af},
		{"uniform/k0", uniformHist, Options{Budget: 100, RecallTarget: 0.6}, 0x596390945955d6b4},
		{"spike/k0", spikeHist, Options{Budget: 40, RecallTarget: 0.9}, 0xb2a2aaae729cdfae},
		{"lattice/k0", latticeHist, Options{Budget: 300, RecallTarget: 0.75}, 0xe90e628ee53673f5},
		{"weblike/k64", webLikeHist, Options{Budget: 100, RecallTarget: 0.5, SignatureK: 64}, 0x882dfb1ef2960577},
		{"uniform/k64", uniformHist, Options{Budget: 100, RecallTarget: 0.6, SignatureK: 64}, 0x5f5832a76128086b},
		{"spike/k64", spikeHist, Options{Budget: 40, RecallTarget: 0.9, SignatureK: 64}, 0x721350c33f4d725d},
		{"lattice/k64", latticeHist, Options{Budget: 300, RecallTarget: 0.75, SignatureK: 64}, 0xfc7524466dbbc0ba},
		{"weblike/k64/uniform-placement", webLikeHist, Options{Budget: 100, RecallTarget: 0.5, SignatureK: 64, Placement: Uniform}, 0x47296d794ca1f62d},
		{"weblike/k64/uniform-tables", webLikeHist, Options{Budget: 100, RecallTarget: 0.5, SignatureK: 64, Allocation: UniformTables}, 0xa36b56ef7bc6be01},
		{"weblike/k64/worst-case", webLikeHist, Options{Budget: 100, RecallTarget: 0.5, SignatureK: 64, Objective: WorstCaseRecall}, 0x32300b4045519f81},
	} {
		plan, err := BuildPlan(tc.hist(), tc.opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		h := fnv.New64a()
		if err := gob.NewEncoder(h).Encode(plan); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := h.Sum64(); got != tc.digest {
			t.Errorf("%s: plan digest %#x, want %#x", tc.name, got, tc.digest)
		}
	}
}

var planSink Plan

// BenchmarkBuildPlan times the Figure 4 construction on the benchmark's
// own distribution and index options.
func BenchmarkBuildPlan(b *testing.B) {
	hist := latticeHist()
	opt := Options{Budget: 300, RecallTarget: 0.75, SignatureK: 64}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := BuildPlan(hist, opt)
		if err != nil {
			b.Fatal(err)
		}
		planSink = plan
	}
}
