package optimize

import (
	"math"

	"repro/internal/filter"
)

// Capture returns the probability that a set at Jaccard similarity s to the
// query is returned by an FI of the given kind anchored at sigma with l
// tables. Zero tables capture nothing.
//
// The signature agreement count of a pair at Jaccard similarity s is
// Binomial(k, s), and the embedded pair's Hamming similarity is
// (1 + A/k)/2 given agreement A (Theorem 1); p_{r,l} is then averaged over
// that distribution. Evaluating p_{r,l} only at the mean (k = 0 requests
// that cheaper approximation) understates capture substantially in the
// tails because p_{r,l} is convex there.
func Capture(kind filter.Kind, sigma float64, l, k int, s float64) float64 {
	return newKernel(k).curve(kind, sigma, l)(s)
}

// kernel evaluates the capture model with its separable parts cached. The
// Binomial average Σ_a w_a(s)·c_a / Σ_a w_a(s) splits into a pmf row w that
// depends only on s, a collision vector c that depends only on
// (kind, r, l), and r, which depends only on (kind, σ, l). The Figure 4
// loop and the Lemma 6 allocator ask for the same rows and vectors
// thousands of times, so each is computed once, on first use, with the
// arithmetic of a direct evaluation; the sum keeps its order, so every
// result is the direct evaluation's to the bit. A kernel lives for one
// Model, one assemble or one CaptureAt and is not safe for concurrent use.
type kernel struct {
	k    int
	rs   map[rKey]int
	vecs map[vecKey][]float64
	rows map[float64]pmfRow
}

type rKey struct {
	kind  filter.Kind
	sigma float64
	l     int
}

type vecKey struct {
	kind filter.Kind
	r, l int
}

// pmfRow is the truncated Binomial(k, s) pmf: weights w[i] for agreement
// counts lo+i and their sum. A row without weights puts all mass on the
// single agreement count at (s <= 0, s >= 1, or weights that underflowed).
type pmfRow struct {
	lo, at int
	w      []float64
	wsum   float64
}

func newKernel(k int) *kernel {
	return &kernel{k: k, rs: map[rKey]int{}, vecs: map[vecKey][]float64{}, rows: map[float64]pmfRow{}}
}

// curve resolves the FI (kind, sigma, l) once and returns its capture
// probability as a function of Jaccard similarity s.
func (c *kernel) curve(kind filter.Kind, sigma float64, l int) func(s float64) float64 {
	if l < 1 {
		return func(float64) float64 { return 0 }
	}
	rk := rKey{kind, sigma, l}
	r, ok := c.rs[rk]
	if !ok {
		r = solveR(kind, sigma, l)
		c.rs[rk] = r
	}
	if c.k <= 0 {
		return func(s float64) float64 { return collision(kind, filter.HammingFromJaccard(s), r, l) }
	}
	vk := vecKey{kind, r, l}
	vec, ok := c.vecs[vk]
	if !ok {
		vec = make([]float64, c.k+1)
		for a := range vec {
			vec[a] = collision(kind, (1+float64(a)/float64(c.k))/2, r, l)
		}
		c.vecs[vk] = vec
	}
	return func(s float64) float64 {
		row := c.row(s)
		if row.w == nil {
			return vec[row.at]
		}
		sum := 0.0
		for i, w := range row.w {
			sum += w * vec[row.lo+i]
		}
		return sum / row.wsum
	}
}

// collision is p_{r,l} at Hamming similarity sH, seen through the FI's
// kind: a DFI probes complemented queries.
func collision(kind filter.Kind, sH float64, r, l int) float64 {
	return filter.CollisionProb(kind.ProbeSimilarity(sH), r, l)
}

// row returns the pmf row at s, keyed by the value itself so that a bin
// midpoint clipped by an integration bound gets a row of its own.
func (c *kernel) row(s float64) pmfRow {
	if row, ok := c.rows[s]; ok {
		return row
	}
	row := binomialRow(c.k, s)
	c.rows[s] = row
	return row
}

// binomialRow returns the Binomial(k, p) pmf truncated to ±6 standard
// deviations around the mean.
func binomialRow(k int, p float64) pmfRow {
	if p <= 0 {
		return pmfRow{at: 0}
	}
	if p >= 1 {
		return pmfRow{at: k}
	}
	mean := float64(k) * p
	dev := 6*math.Sqrt(float64(k)*p*(1-p)) + 1
	lo := max(int(mean-dev), 0)
	hi := min(int(mean+dev), k)
	row := pmfRow{lo: lo, w: make([]float64, 0, hi-lo+1)}
	// pmf(a) computed iteratively from pmf(lo) in log space for stability.
	lp := logBinomPmf(k, lo, p)
	ratio := p / (1 - p)
	for a := lo; a <= hi; a++ {
		w := math.Exp(lp)
		row.w = append(row.w, w)
		row.wsum += w
		// pmf(a+1)/pmf(a) = (k-a)/(a+1) · p/(1-p)
		lp += math.Log(float64(k-a)/float64(a+1)) + math.Log(ratio)
	}
	if row.wsum == 0 {
		return pmfRow{at: int(mean)}
	}
	return row
}

// logBinomPmf returns log C(k, a) + a·log p + (k-a)·log(1-p).
func logBinomPmf(k, a int, p float64) float64 {
	lg := func(x int) float64 {
		v, _ := math.Lgamma(float64(x + 1))
		return v
	}
	return lg(k) - lg(a) - lg(k-a) + float64(a)*math.Log(p) + float64(k-a)*math.Log(1-p)
}
