package minhash

import (
	"math/rand"
	"testing"

	"repro/internal/set"
)

// TestFamilyDeterminism verifies the contract NewFamily documents: the same
// (seed, k) always yields the same family, and therefore bit-identical
// signatures. Snapshot loading leans on this.
func TestFamilyDeterminism(t *testing.T) {
	const k, seed = 64, 12345
	f1, err := NewFamily(k, seed)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := NewFamily(k, seed)
	if err != nil {
		t.Fatal(err)
	}
	s := set.New(3, 1, 4, 15, 92, 65, 35)
	sig1, sig2 := f1.Sign(s), f2.Sign(s)
	for i := range sig1 {
		if sig1[i] != sig2[i] {
			t.Fatalf("coordinate %d differs across same-seed families: %d vs %d", i, sig1[i], sig2[i])
		}
	}

	// A different seed must actually change the family (otherwise the
	// "determinism" above would be vacuous).
	f3, err := NewFamily(k, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	sig3 := f3.Sign(s)
	same := true
	for i := range sig1 {
		if sig1[i] != sig3[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("families from different seeds produced identical signatures")
	}
}

// TestNewFamilyRandMatchesNewFamily verifies the injection constructor is
// exactly the seeded one with the rng lifted out.
func TestNewFamilyRandMatchesNewFamily(t *testing.T) {
	const k, seed = 32, 777
	f1, err := NewFamily(k, seed)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := NewFamilyRand(k, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	s := set.New(10, 20, 30, 40)
	sig1, sig2 := f1.Sign(s), f2.Sign(s)
	for i := range sig1 {
		if sig1[i] != sig2[i] {
			t.Fatalf("coordinate %d differs between NewFamily and NewFamilyRand", i)
		}
	}
}

// TestNewFamilyRandNil rejects a nil rng instead of panicking later.
func TestNewFamilyRandNil(t *testing.T) {
	if _, err := NewFamilyRand(8, nil); err == nil {
		t.Error("NewFamilyRand(8, nil) should error")
	}
}
