// Package simdist estimates and manipulates the similarity distribution
// function D_S of a set collection (Section 5): for every similarity value
// s, the (normalized) mass of set pairs that are s-similar. The optimizer
// uses D_S to place filter indices at equidepth quantiles (Definition 10),
// to split the similarity range at δ (Equation 15), and to quantify expected
// false positives and negatives (Definitions 6–7).
package simdist

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/minhash"
	"repro/internal/set"
)

// DefaultBins is the histogram resolution used when options leave it zero.
const DefaultBins = 200

// MaxBins bounds the resolution SamplePairs accepts and a decoded
// histogram may carry: 2^20 bins, far finer than any estimate needs.
const MaxBins = 1 << 20

// Histogram is a discretized similarity distribution over [0, 1]. Bin i
// covers [i/n, (i+1)/n), except the last bin which also includes 1. Mass is
// stored unnormalized; integral queries normalize on demand.
type Histogram struct {
	bins  []float64
	total float64
}

// NewHistogram creates an empty histogram with n bins (n <= 0 selects
// DefaultBins).
func NewHistogram(n int) *Histogram {
	if n <= 0 {
		n = DefaultBins
	}
	return &Histogram{bins: make([]float64, n)}
}

// Bins returns the number of bins.
func (h *Histogram) Bins() int { return len(h.bins) }

// Add records one observation of similarity s with the given weight.
func (h *Histogram) Add(s, weight float64) {
	if s < 0 {
		s = 0
	}
	if s > 1 {
		s = 1
	}
	i := int(s * float64(len(h.bins)))
	if i == len(h.bins) {
		i--
	}
	h.bins[i] += weight
	h.total += weight
}

// Total returns the total recorded mass.
func (h *Histogram) Total() float64 { return h.total }

// Mass returns the unnormalized mass in [a, b] (clamped to [0, 1]). Partial
// bins are interpolated linearly.
func (h *Histogram) Mass(a, b float64) float64 {
	if a > b {
		return 0
	}
	if a < 0 {
		a = 0
	}
	if b > 1 {
		b = 1
	}
	n := float64(len(h.bins))
	mass := 0.0
	for i, w := range h.bins {
		lo, hi := float64(i)/n, float64(i+1)/n
		if hi <= a || lo >= b {
			continue
		}
		overlap := minf(hi, b) - maxf(lo, a)
		mass += w * overlap * n
	}
	return mass
}

// Integrate computes ∫_a^b f(s)·D(s) ds against the histogram density,
// evaluating f at each overlapped bin's midpoint. This is how the expected
// false positive/negative integrals of Definitions 6 and 7 are realized.
func (h *Histogram) Integrate(a, b float64, f func(s float64) float64) float64 {
	if a > b {
		return 0
	}
	if a < 0 {
		a = 0
	}
	if b > 1 {
		b = 1
	}
	n := float64(len(h.bins))
	sum := 0.0
	for i, w := range h.bins {
		if w == 0 {
			continue
		}
		lo, hi := float64(i)/n, float64(i+1)/n
		if hi <= a || lo >= b {
			continue
		}
		cLo, cHi := maxf(lo, a), minf(hi, b)
		mid := (cLo + cHi) / 2
		sum += f(mid) * w * (cHi - cLo) * n
	}
	return sum
}

// Quantile returns the smallest s with CDF(s) >= p, for p in [0, 1].
// An empty histogram returns p itself (uniform fallback).
func (h *Histogram) Quantile(p float64) float64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return 1
	}
	if h.total == 0 {
		return p
	}
	target := p * h.total
	acc := 0.0
	n := float64(len(h.bins))
	for i, w := range h.bins {
		if acc+w >= target {
			frac := 0.0
			if w > 0 {
				frac = (target - acc) / w
			}
			return (float64(i) + frac) / n
		}
		acc += w
	}
	return 1
}

// Equidepth returns the k-1 interior cut points of a k-wise equidepth
// decomposition of [0, 1] (Definition 10): each of the k intervals carries
// mass total/k.
func (h *Histogram) Equidepth(k int) ([]float64, error) {
	if k < 1 {
		return nil, fmt.Errorf("simdist: k must be >= 1, got %d", k)
	}
	cuts := make([]float64, 0, k-1)
	for i := 1; i < k; i++ {
		cuts = append(cuts, h.Quantile(float64(i)/float64(k)))
	}
	return cuts, nil
}

// Delta returns the similarity δ splitting the range into equal-mass halves
// (Equation 15): DFIs are placed below δ and SFIs above.
func (h *Histogram) Delta() float64 { return h.Quantile(0.5) }

// CDF returns the normalized cumulative mass at s: the fraction of recorded
// pairs with similarity <= s. An empty histogram returns 0 everywhere. The
// drift detector compares two distributions by their maximum CDF distance
// over the plan's partition points (a Kolmogorov–Smirnov statistic
// restricted to the points the plan actually depends on).
func (h *Histogram) CDF(s float64) float64 {
	if h.total == 0 {
		return 0
	}
	return h.Mass(0, s) / h.total
}

// RawBins returns a copy of the unnormalized per-bin masses — the exact
// internal state, so FromBins(h.RawBins()) reproduces h bit-for-bit. Used
// by the persistence layer to carry a tuner baseline through snapshots.
func (h *Histogram) RawBins() []float64 {
	out := make([]float64, len(h.bins))
	copy(out, h.bins)
	return out
}

// FromBins reconstructs a histogram from raw bin masses as returned by
// RawBins. The total is recomputed as the plain left-to-right sum — the
// same order incremental Adds accumulate it in, so a round trip through
// RawBins/FromBins is bit-identical for histograms built by Add alone.
func FromBins(bins []float64) *Histogram {
	h := &Histogram{bins: make([]float64, len(bins))}
	copy(h.bins, bins)
	for _, w := range bins {
		h.total += w
	}
	return h
}

// Clone returns a deep copy.
func (h *Histogram) Clone() *Histogram {
	cp := &Histogram{bins: make([]float64, len(h.bins)), total: h.total}
	copy(cp.bins, h.bins)
	return cp
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// ExactPairs computes D_S exactly from all |S|(|S|-1)/2 pairwise Jaccard
// similarities — O(N²), the preprocessing option of Section 5 for small
// collections.
func ExactPairs(sets []set.Set, bins int) *Histogram {
	h := NewHistogram(bins)
	for i := 0; i < len(sets); i++ {
		for j := i + 1; j < len(sets); j++ {
			h.Add(sets[i].Jaccard(sets[j]), 1)
		}
	}
	return h
}

// SamplePairs approximates D_S from sample pairwise similarities (Lemma 1):
// it draws the index pairs up front, gathers the referenced sets in a
// single pass over the collection, and computes only those similarities.
// Memory is O(sample), independent of |S|.
func SamplePairs(sets []set.Set, sample int, bins int, seed int64) (*Histogram, error) {
	n := len(sets)
	if n < 2 {
		return nil, fmt.Errorf("simdist: need at least 2 sets, got %d", n)
	}
	if sample < 1 {
		return nil, fmt.Errorf("simdist: sample must be >= 1, got %d", sample)
	}
	if bins > MaxBins {
		return nil, fmt.Errorf("simdist: %d bins exceed the maximum %d", bins, MaxBins)
	}
	rng := rand.New(rand.NewSource(seed))
	type pair struct{ i, j int }
	pairs := make([]pair, sample)
	needed := make(map[int]set.Set, 2*sample)
	for k := range pairs {
		i := rng.Intn(n)
		j := rng.Intn(n - 1)
		if j >= i {
			j++
		}
		pairs[k] = pair{i, j}
		needed[i] = set.Set{}
		needed[j] = set.Set{}
	}
	// The "single dataset pass": touch each referenced set exactly once.
	for idx := range needed {
		needed[idx] = sets[idx]
	}
	h := NewHistogram(bins)
	for _, p := range pairs {
		h.Add(needed[p.i].Jaccard(needed[p.j]), 1)
	}
	return h, nil
}

// SampleSignaturePairs approximates D_S like SamplePairs but estimates each
// pair's similarity from min-hash signatures instead of exact sets — the
// cheapest preprocessing path once signatures exist anyway for the index.
func SampleSignaturePairs(sigs []minhash.Signature, sample int, bins int, seed int64) (*Histogram, error) {
	return SampleSignaturePairsN(sigs, sample, bins, seed, 1)
}

// SampleSignaturePairsN is SampleSignaturePairs with the pair estimation
// fanned across up to `workers` goroutines (workers <= 1 runs inline). The
// pair sequence is drawn serially from the seeded rng before fan-out, and
// per-worker histograms accumulate unit weights (exact integer counts in
// float64, associative far below 2^53), so the result is bit-identical to
// the serial computation for every worker count.
func SampleSignaturePairsN(sigs []minhash.Signature, sample, bins int, seed int64, workers int) (*Histogram, error) {
	n := len(sigs)
	if n < 2 {
		return nil, fmt.Errorf("simdist: need at least 2 signatures, got %d", n)
	}
	if sample < 1 {
		return nil, fmt.Errorf("simdist: sample must be >= 1, got %d", sample)
	}
	rng := rand.New(rand.NewSource(seed))
	pairs := make([][2]int, sample)
	for k := range pairs {
		i := rng.Intn(n)
		j := rng.Intn(n - 1)
		if j >= i {
			j++
		}
		pairs[k] = [2]int{i, j}
	}
	if workers > sample {
		workers = sample
	}
	h := NewHistogram(bins)
	if workers <= 1 {
		if err := estimatePairs(sigs, pairs, h); err != nil {
			return nil, err
		}
		return h, nil
	}
	parts := make([]*Histogram, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * sample / workers
		hi := (w + 1) * sample / workers
		parts[w] = NewHistogram(bins)
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			errs[w] = estimatePairs(sigs, pairs[lo:hi], parts[w])
		}(w, lo, hi)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			return nil, errs[w]
		}
		for b, m := range parts[w].bins {
			h.bins[b] += m
		}
		h.total += parts[w].total
	}
	return h, nil
}

// estimatePairs records the estimated similarity of every pair into h.
func estimatePairs(sigs []minhash.Signature, pairs [][2]int, h *Histogram) error {
	for _, p := range pairs {
		s, err := minhash.Estimate(sigs[p[0]], sigs[p[1]])
		if err != nil {
			return err
		}
		h.Add(s, 1)
	}
	return nil
}
