package ecc

import (
	"math/bits"
	"testing"
)

// distance is the Hamming distance between the codewords of u and w: by
// linearity, the weight of the codeword of u^w.
func distance(c Code, u, w uint64) int {
	d := 0
	for x := 0; x < c.Length(); x++ {
		d += bits.OnesCount64((u^w)&c.Column(x)) & 1
	}
	return d
}

// TestHadamardEquidistance is Theorem 1's requirement, checked
// exhaustively for b = 1..8: every pair of distinct codewords is at
// distance exactly m/2.
func TestHadamardEquidistance(t *testing.T) {
	for b := 1; b <= 8; b++ {
		code, err := NewHadamard(b)
		if err != nil {
			t.Fatal(err)
		}
		m := code.Length()
		if m != 1<<uint(b) {
			t.Fatalf("b=%d: length %d, want %d", b, m, 1<<uint(b))
		}
		n := uint64(1) << uint(b)
		for u := uint64(0); u < n; u++ {
			for w := u + 1; w < n; w++ {
				if d := distance(code, u, w); d != m/2 {
					t.Fatalf("b=%d: d(C(%d), C(%d)) = %d, want %d", b, u, w, d, m/2)
				}
			}
		}
	}
}

func TestHadamardMasksHighBits(t *testing.T) {
	code, _ := NewHadamard(4)
	// Bits above b must be ignored.
	if d := distance(code, 0x5, 0xF5); d != 0 {
		t.Errorf("high message bits leaked into the codeword: distance %d", d)
	}
}

func TestIdentityIsBroken(t *testing.T) {
	// Example 1 of the paper: under the identity embedding, distinct
	// values still share bits, so the distance is NOT a fixed fraction.
	code, _ := NewIdentity(3)
	d12 := distance(code, 1, 2) // 001 vs 010 → 2
	d13 := distance(code, 1, 3) // 001 vs 011 → 1
	if d12 == d13 {
		t.Error("expected unequal pairwise distances for identity code")
	}
}

func TestConstructorValidation(t *testing.T) {
	if _, err := NewHadamard(0); err == nil {
		t.Error("Hadamard(0) accepted")
	}
	if _, err := NewHadamard(21); err == nil {
		t.Error("Hadamard(21) accepted")
	}
	if _, err := NewIdentity(65); err == nil {
		t.Error("Identity(65) accepted")
	}
}
