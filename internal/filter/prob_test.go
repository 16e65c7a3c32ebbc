package filter

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCollisionProbBounds(t *testing.T) {
	if got := CollisionProb(0, 5, 10); got != 0 {
		t.Errorf("p(0) = %g", got)
	}
	if got := CollisionProb(1, 5, 10); got != 1 {
		t.Errorf("p(1) = %g", got)
	}
	if got := CollisionProb(0.5, 0, 10); got != 0 {
		t.Errorf("r=0 gave %g", got)
	}
	if got := CollisionProb(0.5, 5, 0); got != 0 {
		t.Errorf("l=0 gave %g", got)
	}
}

func TestCollisionProbFormula(t *testing.T) {
	// Direct comparison with the naive formula for moderate values.
	for _, tc := range []struct {
		s    float64
		r, l int
	}{
		{0.9, 10, 5}, {0.5, 8, 20}, {0.7, 30, 100}, {0.2, 4, 3},
	} {
		want := 1 - math.Pow(1-math.Pow(tc.s, float64(tc.r)), float64(tc.l))
		got := CollisionProb(tc.s, tc.r, tc.l)
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("p(%g;%d,%d) = %.15f, want %.15f", tc.s, tc.r, tc.l, got, want)
		}
	}
}

func TestCollisionProbMonotonicInS(t *testing.T) {
	f := func(a, b float64) bool {
		a, b = math.Abs(math.Mod(a, 1)), math.Abs(math.Mod(b, 1))
		if a > b {
			a, b = b, a
		}
		return CollisionProb(a, 12, 30) <= CollisionProb(b, 12, 30)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSolveRTurningPoint(t *testing.T) {
	// p_{r,l}(s*) must be close to 1/2 (up to integer rounding of r).
	for _, sStar := range []float64{0.55, 0.7, 0.85, 0.95} {
		for _, l := range []int{1, 5, 20, 100, 500} {
			r, err := SolveR(l, sStar)
			if err != nil {
				t.Fatalf("SolveR(%d, %g): %v", l, sStar, err)
			}
			if r < 1 {
				t.Fatalf("r = %d", r)
			}
			// Evaluate at the turning point the rounded r realizes.
			tp := TurningPoint(r, l)
			p := CollisionProb(tp, r, l)
			if math.Abs(p-0.5) > 1e-9 {
				t.Errorf("p at turning point = %g", p)
			}
			// The realized turning point should be near the requested one.
			if math.Abs(tp-sStar) > 0.08 {
				t.Errorf("s*=%g l=%d: realized turning point %g", sStar, l, tp)
			}
		}
	}
}

func TestSolveRValidation(t *testing.T) {
	if _, err := SolveR(0, 0.5); err == nil {
		t.Error("l=0 accepted")
	}
	if _, err := SolveR(5, 0); err == nil {
		t.Error("sStar=0 accepted")
	}
	if _, err := SolveR(5, 1); err == nil {
		t.Error("sStar=1 accepted")
	}
	for _, s := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := SolveR(5, s); err == nil {
			t.Errorf("sStar=%g accepted", s)
		}
	}
}

func TestSolveRMonotonicInL(t *testing.T) {
	// The paper's "monotonic" r–l relationship: more tables need more
	// sampled bits to keep the same turning point.
	prev := 0
	for _, l := range []int{1, 2, 4, 8, 16, 32, 64, 128} {
		r, err := SolveR(l, 0.8)
		if err != nil {
			t.Fatal(err)
		}
		if r < prev {
			t.Errorf("r decreased from %d to %d as l grew to %d", prev, r, l)
		}
		prev = r
	}
}

func TestSteepnessGrowsWithL(t *testing.T) {
	// The r–l trade-off of Section 5: the curve steepens as l grows.
	sStar := 0.8
	prev := 0.0
	for _, l := range []int{2, 8, 32, 128} {
		r, _ := SolveR(l, sStar)
		st := Steepness(r, l)
		if st <= prev {
			t.Errorf("steepness %g at l=%d not greater than %g", st, l, prev)
		}
		prev = st
	}
}

func TestSCurveShape(t *testing.T) {
	// Below the turning point the filter should be loose (p < 1/2), above
	// it tight (p > 1/2) — the S shape of Figure 3.
	l := 30
	sStar := 0.75
	r, _ := SolveR(l, sStar)
	tp := TurningPoint(r, l)
	if p := CollisionProb(tp-0.15, r, l); p >= 0.5 {
		t.Errorf("p below turning point = %g, want < 0.5", p)
	}
	if p := CollisionProb(tp+0.15, r, l); p <= 0.5 {
		t.Errorf("p above turning point = %g, want > 0.5", p)
	}
}

func TestTurningPointEdge(t *testing.T) {
	if TurningPoint(0, 5) != 0 || TurningPoint(5, 0) != 0 {
		t.Error("invalid parameters should return 0")
	}
	if Steepness(0, 5) != 0 {
		t.Error("invalid steepness should be 0")
	}
}
