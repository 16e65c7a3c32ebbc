// Package floats is the tolerance comparison for O(1) quantities such as
// partition points. A plan stores its cuts and its filter-index points as
// separate values, and a decoded snapshot may carry either a few ulps
// away from the other, so resolving a range endpoint to the filter index
// planned at that point needs a tolerance, not ==
// (TestLoadToleratesOneULPCuts in internal/core).
package floats

import "math"

// DefaultTol is the tolerance used by Eq. Partition points, collision
// probabilities, and histogram masses in this repo are O(1) quantities
// computed in a handful of float64 operations; 1e-9 is far above their
// accumulated rounding error and far below any meaningful similarity
// difference (the optimizer already deduplicates cuts at 1e-9).
const DefaultTol = 1e-9

// Eq reports whether a and b are equal within DefaultTol (absolute).
// It is the predicate for identity checks on O(1) quantities such as
// partition points; for values of arbitrary magnitude use Within with a
// scale-aware tolerance.
func Eq(a, b float64) bool {
	return Within(a, b, DefaultTol)
}

// Within reports whether |a-b| <= tol. NaN compares unequal to everything,
// matching IEEE semantics.
func Within(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

// Zero reports whether x is within DefaultTol of zero.
func Zero(x float64) bool {
	return math.Abs(x) <= DefaultTol
}
