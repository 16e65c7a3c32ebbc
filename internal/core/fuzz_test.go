package core

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/filter"
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

// FuzzBuildRoundTrip drives Build with hostile Options, a plan override
// among them: NaN, infinite, negative, zero and huge values. Build must
// refuse them with an error, or Snapshot → Restore → Snapshot of its index
// must give identical bytes. The budget comes from a small range and shrink keeps
// valid signature lengths, filter-index counts and table counts small, so
// each execution stays fast; the 2^16-table edge is TestBuildValidation's.
func FuzzBuildRoundTrip(f *testing.F) {
	sets, err := workload.Generate(workload.Set1Params(40))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(int64(32), int8(6), int64(3), uint8(28), 0.9, int16(16), int32(0), int32(0), int64(0), 0.5, int64(1))
	f.Add(int64(0), int8(8), int64(0), uint8(28), 0.9, int16(16), int32(0), int32(0), int64(0), 0.5, int64(1))
	f.Add(int64(16), int8(8), int64(0), uint8(0), math.NaN(), int16(-1), int32(0), int32(0), int64(3), 0.4, int64(5))
	f.Add(int64(8), int8(4), int64(0), uint8(9), 0.9, int16(3), int32(-1), int32(-1), int64(2), math.NaN(), int64(1))
	f.Add(int64(1<<16+1), int8(21), int64(-1), uint8(5), math.Inf(1), int16(0), int32(786438), int32(1<<20+1), int64(3), 0.0, int64(0))
	f.Add(int64(16), int8(20), int64(7), uint8(12), 0.5, int16(2), int32(786437), int32(1<<20), int64(2), 0.3, int64(1<<16+1))
	f.Add(int64(16), int8(1), int64(7), uint8(12), 0.5, int16(2), int32(18), int32(0), int64(1<<10+1), 0.999, int64(3))
	f.Fuzz(func(t *testing.T, k int64, bits int8, seed int64, budget uint8, recall float64, maxFIs int16, pageSize, payload int32, nFIs int64, point float64, tables int64) {
		opt := Options{
			Embed:          minhash.Options{K: shrink(k, 128, minhash.MaxK), Bits: int(bits), Seed: seed},
			Plan:           optimize.Options{Budget: int(budget%64) - 4, RecallTarget: recall, MaxFIs: int(maxFIs)},
			PageSize:       int(pageSize),
			PayloadPerElem: int(payload),
			DistSeed:       seed,
		}
		if n := min(shrink(nFIs, 4, optimize.MaxPlanFIs), optimize.MaxPlanFIs+1); n > 0 {
			plan := optimize.Plan{FIs: make([]optimize.FI, n)}
			for i := range plan.FIs {
				plan.FIs[i] = optimize.FI{Point: point, Kind: filter.Kind(i % 2), Tables: shrink(tables, 8, optimize.MaxTables)}
			}
			opt.PlanOverride = &plan
		}
		ix, err := Build(sets, opt)
		if err != nil {
			return
		}
		snap := ix.Snapshot()
		loaded, err := Restore(&snap)
		if err != nil {
			t.Fatalf("Build accepted what Restore refuses: %v", err)
		}
		if !bytes.Equal(snapshotBytes(t, ix), snapshotBytes(t, loaded)) {
			t.Fatal("Snapshot → Restore → Snapshot changed the bytes")
		}
	})
}

// shrink maps a fuzzed value in (cheap, limit] into [1, cheap], keeping a
// valid but costly option cheap; every other value, the hostile ones
// included, passes through unchanged.
func shrink(v int64, cheap, limit int64) int {
	if v > cheap && v <= limit {
		return int(v%cheap) + 1
	}
	return int(v)
}
