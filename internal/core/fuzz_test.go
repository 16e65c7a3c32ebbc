package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/minhash"
	"repro/internal/optimize"
	"repro/internal/workload"
)

// FuzzQueryRange drives the one range processor with arbitrary bounds,
// worker counts, screening and arms on a small fixed index. An invalid
// range must fail on every arm; on a valid one the scan arm must answer
// exactly like the probe arm, the probe arm must answer exactly like an
// unbounded fetch + Jaccard over its candidates (the size bound has no
// false negatives), and the screen arm must account every candidate as a
// result or a screened estimate without fetching a page.
func FuzzQueryRange(f *testing.F) {
	sets, err := workload.Generate(workload.Set1Params(120))
	if err != nil {
		f.Fatal(err)
	}
	ix, err := Build(sets, Options{
		Embed: minhash.Options{K: 64, Bits: 8, Seed: 42},
		Plan:  optimize.Options{Budget: 40, RecallTarget: 0.9},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(0.5, 1.0, uint32(1), false, uint8(ArmProbe), uint8(0))
	f.Add(0.0, 1.0, uint32(4), true, uint8(ArmScan), uint8(7))
	f.Add(0.75, 0.85, uint32(1<<24), true, uint8(ArmScreen), uint8(60))
	f.Add(math.NaN(), 0.5, uint32(2), false, uint8(ArmScan), uint8(1))
	f.Add(-0.5, 0.3, uint32(0), false, uint8(ArmProbe), uint8(2))
	f.Add(0.2, math.Inf(1), uint32(3), true, uint8(ArmScreen), uint8(3))
	f.Fuzz(func(t *testing.T, lo, hi float64, workers uint32, screen bool, arm, qi uint8) {
		q := sets[int(qi)%len(sets)]
		opt := QueryOptions{
			Arm:               Arm(arm % 3),
			Screen:            screen,
			Workers:           int(workers % (1<<24 + 1)),
			MinParallelVerify: 1,
		}
		got, st, err := ix.QueryPresigned(q, nil, lo, hi, opt)
		if !(lo >= 0 && hi <= 1 && lo <= hi) {
			if err == nil {
				t.Fatalf("range [%g, %g] accepted by arm %d", lo, hi, opt.Arm)
			}
			return
		}
		if err != nil {
			t.Fatalf("range [%g, %g] arm %d: %v", lo, hi, opt.Arm, err)
		}
		if opt.Arm == ArmScreen {
			if st.Results != len(got) || st.Results+st.Screened != st.Candidates {
				t.Fatalf("screen [%g, %g]: %d results + %d screened of %d candidates (%d matches)",
					lo, hi, st.Results, st.Screened, st.Candidates, len(got))
			}
			if st.FetchIO.Rand() != 0 || st.FetchIO.Seq() != 0 {
				t.Fatalf("screen [%g, %g] fetched data pages: %d rand, %d seq", lo, hi, st.FetchIO.Rand(), st.FetchIO.Seq())
			}
			return
		}
		other := opt
		other.Arm = ArmScan
		if opt.Arm == ArmScan {
			other.Arm = ArmProbe
		}
		want, wantSt, err := ix.QueryPresigned(q, nil, lo, hi, other)
		if err != nil {
			t.Fatalf("range [%g, %g] arm %d: %v", lo, hi, other.Arm, err)
		}
		if opt.Arm == ArmProbe {
			got, st, want, wantSt = want, wantSt, got, st
		}
		if !screen { // screening may drop true matches; the bound may not
			if brute := bruteForceVerify(t, ix, q, lo, hi); !slices.Equal(want, brute) {
				t.Fatalf("range [%g, %g] opt %+v: probe arm %d matches, unbounded verify %d", lo, hi, opt, len(want), len(brute))
			}
		}
		requireSameRangeAnswer(t, fmt.Sprintf("range [%g, %g] opt %+v", lo, hi, opt), got, st, want, wantSt)
	})
}
