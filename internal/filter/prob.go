package filter

import (
	"fmt"
	"math"
)

// CollisionProb returns p_{r,l}(s) = 1 - (1 - s^r)^l (Equation 4): the
// probability that two vectors with Hamming similarity s share a bucket in
// at least one of l tables of r sampled bits.
func CollisionProb(s float64, r, l int) float64 {
	if r <= 0 || l <= 0 {
		return 0
	}
	if s <= 0 {
		return 0
	}
	if s >= 1 {
		return 1
	}
	sr := math.Pow(s, float64(r))
	// For tiny s^r, (1-s^r)^l loses precision; use expm1/log1p.
	return -math.Expm1(float64(l) * math.Log1p(-sr))
}

// SolveR returns the number of sampled bits r such that the filter function
// with l tables has its turning point at sStar, i.e. p_{r,l}(sStar) = 1/2.
// From (1 - sStar^r)^l = 1/2: r = ln(1 - 2^{-1/l}) / ln(sStar). The result
// is rounded to the nearest integer and clamped to at least 1.
//
// sStar must lie strictly inside (0, 1).
func SolveR(l int, sStar float64) (int, error) {
	if l < 1 {
		return 0, fmt.Errorf("filter: l must be >= 1, got %d", l)
	}
	if !(sStar > 0 && sStar < 1) {
		return 0, fmt.Errorf("filter: sStar must be in (0,1), got %g", sStar)
	}
	x := 1 - math.Pow(2, -1/float64(l)) // sStar^r at the turning point
	r := math.Log(x) / math.Log(sStar)
	ri := int(math.Round(r))
	if ri < 1 {
		ri = 1
	}
	return ri, nil
}

// TurningPoint returns the similarity s* at which p_{r,l}(s*) = 1/2 for the
// given parameters — the inverse of SolveR, useful for reporting the curve
// a rounded r actually realizes.
func TurningPoint(r, l int) float64 {
	if r < 1 || l < 1 {
		return 0
	}
	x := 1 - math.Pow(2, -1/float64(l))
	return math.Pow(x, 1/float64(r))
}

// Steepness returns the derivative of p_{r,l} at its turning point, a
// measure of how closely the filter approximates the ideal unit step. The
// paper notes the r–l monotonic trade-off: increasing l (and the matching
// r) steepens the curve at the price of more hash tables.
func Steepness(r, l int) float64 {
	s := TurningPoint(r, l)
	if s <= 0 || s >= 1 {
		return 0
	}
	sr := math.Pow(s, float64(r))
	// d/ds [1-(1-s^r)^l] = l (1-s^r)^(l-1) r s^(r-1)
	return float64(l) * math.Pow(1-sr, float64(l-1)) * float64(r) * sr / s
}
