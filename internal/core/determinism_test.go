package core

import (
	"testing"

	"repro/internal/minhash"
	"repro/internal/optimize"
	"repro/internal/workload"
)

// TestBuildDeterminism builds the same collection twice with the same
// options and requires bit-identical internals: every min-hash signature
// and every filter index's sampled bit positions. This is the end-to-end
// form of the guarantee snapshot loading relies on (filter contents are
// rebuilt, not persisted) and the invariant the seededrand analyzer
// protects — one stray global-rand call anywhere in the pipeline breaks it.
func TestBuildDeterminism(t *testing.T) {
	sets, err := workload.Generate(workload.Set1Params(250))
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{
		Embed:    minhash.Options{K: 64, Bits: 8, Seed: 42},
		Plan:     optimize.Options{Budget: 30, RecallTarget: 0.9},
		DistSeed: 7,
	}
	ix1, err := Build(sets, opt)
	if err != nil {
		t.Fatal(err)
	}
	ix2, err := Build(sets, opt)
	if err != nil {
		t.Fatal(err)
	}

	// Identical signatures, coordinate by coordinate.
	if len(ix1.sigs) != len(ix2.sigs) {
		t.Fatalf("signature counts differ: %d vs %d", len(ix1.sigs), len(ix2.sigs))
	}
	for sid := range ix1.sigs {
		a, b := ix1.sigs[sid], ix2.sigs[sid]
		if len(a) != len(b) {
			t.Fatalf("sid %d: signature lengths differ", sid)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("sid %d coordinate %d differs across rebuilds: %d vs %d", sid, i, a[i], b[i])
			}
		}
	}

	// Identical sampled bit positions in every filter index, SFI and DFI.
	requireSameFilters(t, "rebuild", ix1, ix2)

	// And the observable behaviour agrees: identical query answers.
	for _, r := range [][2]float64{{0.8, 1.0}, {0.3, 0.6}, {0.0, 0.2}} {
		m1, _, err := ix1.QueryWithOptions(sets[0], r[0], r[1], QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		m2, _, err := ix2.QueryWithOptions(sets[0], r[0], r[1], QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(m1) != len(m2) {
			t.Fatalf("range %v: %d vs %d results", r, len(m1), len(m2))
		}
		for i := range m1 {
			if m1[i] != m2[i] {
				t.Fatalf("range %v result %d differs: %+v vs %+v", r, i, m1[i], m2[i])
			}
		}
	}
}
