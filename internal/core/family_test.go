package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/embed"
	"repro/internal/minhash"
	"repro/internal/optimize"
	"repro/internal/workload"
)

func familyTestOptions() Options {
	return Options{
		Embed:    embed.Options{K: 32, Bits: 6, Seed: 3},
		Plan:     optimize.Options{Budget: 30, RecallTarget: 0.9},
		DistSeed: 5,
	}
}

// TestPrecomputedSignatureValidation pins the fail-fast contract: a
// malformed signature slice must fail Build with an error BEFORE any side
// effect (store appends, filter population) — never panic mid-sign.
func TestPrecomputedSignatureValidation(t *testing.T) {
	sets, err := workload.Generate(workload.Set1Params(120))
	if err != nil {
		t.Fatal(err)
	}
	opt := familyTestOptions()
	base, err := Build(sets, opt)
	if err != nil {
		t.Fatal(err)
	}
	goodSigs := make([]minhash.Signature, len(sets))
	for i, s := range sets {
		goodSigs[i] = base.Embedder().Sign(s)
	}
	plan := base.Plan()

	cases := []struct {
		name    string
		mutate  func(o *Options)
		wantSub string
	}{
		{
			name: "wrong signature count",
			mutate: func(o *Options) {
				o.PrecomputedSignatures = goodSigs[:len(goodSigs)-1]
			},
			wantSub: "precomputed signatures",
		},
		{
			name: "wrong signature length",
			mutate: func(o *Options) {
				sigs := make([]minhash.Signature, len(goodSigs))
				copy(sigs, goodSigs)
				sigs[2] = sigs[2][:5]
				o.PrecomputedSignatures = sigs
			},
			wantSub: "coordinates",
		},
		{
			name: "packed without plan override",
			mutate: func(o *Options) {
				o.PackedSignatures = make([][]uint64, len(sets))
			},
			wantSub: "PlanOverride",
		},
		{
			name: "packed wrong word count",
			mutate: func(o *Options) {
				o.PlanOverride = &plan
				packed := make([][]uint64, len(sets))
				for i := range packed {
					packed[i] = make([]uint64, 3)
				}
				o.PackedSignatures = packed
			},
			wantSub: "words",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Build panicked instead of returning an error: %v", r)
				}
			}()
			o := familyTestOptions()
			tc.mutate(&o)
			if _, err := Build(sets, o); err == nil {
				t.Fatal("Build accepted malformed signatures")
			} else if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}

	// The well-formed slice must still build, identically to signing fresh.
	o := familyTestOptions()
	o.PrecomputedSignatures = goodSigs
	ix, err := Build(sets, o)
	if err != nil {
		t.Fatalf("well-formed precomputed signatures rejected: %v", err)
	}
	m1, _, err := base.QueryWithOptions(sets[0], 0.3, 1.0, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m2, _, err := ix.QueryWithOptions(sets[0], 0.3, 1.0, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(m1) != len(m2) {
		t.Fatalf("precomputed build answers differ: %d vs %d matches", len(m1), len(m2))
	}
}

// TestFamilyWorkerDeterminism requires serial and parallel builds to be
// bit-identical for every signing family: same stored (packed) signatures
// and same snapshot bytes at Workers 1, 0, and 3.
func TestFamilyWorkerDeterminism(t *testing.T) {
	sets, err := workload.Generate(workload.Set1Params(150))
	if err != nil {
		t.Fatal(err)
	}
	configs := []minhash.Config{
		{},
		{Base: "classic", BitsPerHash: 8},
		{Base: "classic", BitsPerHash: 4},
		{Base: "classic", BitsPerHash: 1},
		{Base: "superminhash"},
		{Base: "superminhash", BitsPerHash: 4},
	}
	for _, scfg := range configs {
		norm, err := scfg.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		t.Run(fmt.Sprintf("%s-%d", norm.Base, norm.BitsPerHash), func(t *testing.T) {
			var wantSigs []minhash.Signature
			var wantSnap []byte
			for _, workers := range []int{1, 0, 3} {
				o := familyTestOptions()
				o.Signing = scfg
				o.Workers = workers
				ix, err := Build(sets, o)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				var buf bytes.Buffer
				if err := ix.Save(&buf); err != nil {
					t.Fatalf("workers=%d: Save: %v", workers, err)
				}
				if wantSigs == nil {
					wantSigs = ix.sigs
					wantSnap = buf.Bytes()
					continue
				}
				if len(ix.sigs) != len(wantSigs) {
					t.Fatalf("workers=%d: %d signatures, want %d", workers, len(ix.sigs), len(wantSigs))
				}
				for sid := range ix.sigs {
					a, b := ix.sigs[sid], wantSigs[sid]
					if len(a) != len(b) {
						t.Fatalf("workers=%d sid %d: %d words, want %d", workers, sid, len(a), len(b))
					}
					for w := range a {
						if a[w] != b[w] {
							t.Fatalf("workers=%d sid %d word %d: %#x vs %#x", workers, sid, w, a[w], b[w])
						}
					}
				}
				if !bytes.Equal(buf.Bytes(), wantSnap) {
					t.Fatalf("workers=%d: snapshot bytes differ from serial build", workers)
				}
			}
		})
	}
}

// TestFamilyLegacySnapshotIsClassic64 pins backward compatibility at the
// core layer: a classic-64 snapshot carries no family trailer, and loading
// it yields the classic-64 configuration with the historical signature
// layout.
func TestFamilyLegacySnapshotIsClassic64(t *testing.T) {
	sets, err := workload.Generate(workload.Set1Params(80))
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(sets, familyTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	scfg := loaded.SigningConfig()
	if !scfg.IsClassic64() {
		t.Fatalf("legacy snapshot loaded as %+v, want classic-64", scfg)
	}
	if got, want := loaded.SignatureBytesPerSet(), ix.Embedder().K()*8; got != want {
		t.Fatalf("SignatureBytesPerSet = %d, want %d", got, want)
	}
}
