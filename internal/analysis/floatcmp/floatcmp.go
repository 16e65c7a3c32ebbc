// Package floatcmp defines an analyzer forbidding == and != between
// floating-point operands in the probability-math packages.
//
// Why this matters here: the optimizer's partition points, the collision
// curves p_{r,l}(s), and the recall/precision integrals are all computed in
// float64. Exact equality between two *computed* floats is almost never the
// intended predicate — quantile placement, Hamming-scale conversion, and
// histogram integration each introduce rounding, so an == that "works today"
// silently stops matching after any arithmetic reordering, and the failure
// mode is not a crash but a filter index quietly dropping out of a query
// combination (skewed recall, Section 4.3). Comparisons must go through a
// tolerance helper (repro/internal/floats) or be restructured.
//
// Two comparisons stay legal because they are exact by construction:
//
//   - comparison against a constant whose value is exactly 0 or 1. These are
//     the sentinel values of the domain (empty mass, unset target, the ends
//     of the similarity scale); both are exactly representable and testing
//     them is idiomatic ("was this ever assigned?").
//   - comparisons where both operands are constants (folded at compile time).
//
// What only this analyzer catches: `fi.Point == p` in place of
// floats.Eq in optimize's fiAt, the lookup of a planned filter index at a
// partition point. gofmt, go build, go vet and go test with and without
// -race all pass with that plant in.
package floatcmp

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer flags floating-point equality comparisons.
var Analyzer = &analysis.Analyzer{
	Name: "floatcmp",
	Doc:  "forbid == and != on floating-point operands outside a tolerance helper; rounding makes computed-float equality meaningless and the resulting bugs skew recall silently",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	pass.Inspect(func(n ast.Node) bool {
		bin, ok := n.(*ast.BinaryExpr)
		if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
			return true
		}
		xt := pass.TypesInfo.Types[bin.X]
		yt := pass.TypesInfo.Types[bin.Y]
		if !isFloat(xt.Type) || !isFloat(yt.Type) {
			return true
		}
		// Both constant: folded at compile time, exact.
		if xt.Value != nil && yt.Value != nil {
			return true
		}
		// One side an exact 0 or 1 sentinel: exactly representable.
		if isExactSentinel(xt.Value) || isExactSentinel(yt.Value) {
			return true
		}
		pass.Reportf(bin.OpPos,
			"floating-point %s comparison: use a tolerance helper (repro/internal/floats) or compare against the exact sentinels 0/1",
			bin.Op)
		return true
	})
	return nil
}

// isFloat reports whether t's core type is a floating-point type.
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsFloat != 0
}

// isExactSentinel reports whether v is a compile-time constant equal to
// exactly 0 or 1.
func isExactSentinel(v constant.Value) bool {
	if v == nil {
		return false
	}
	return constant.Compare(v, token.EQL, constant.MakeInt64(0)) ||
		constant.Compare(v, token.EQL, constant.MakeInt64(1))
}
