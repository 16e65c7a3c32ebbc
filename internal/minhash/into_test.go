package minhash

import (
	"testing"

	"repro/internal/set"
)

// TestSignIntoMatchesSign checks the allocation-free variant is
// coordinate-identical to Sign for assorted sets.
func TestSignIntoMatchesSign(t *testing.T) {
	f, err := NewFamily(32, 7)
	if err != nil {
		t.Fatal(err)
	}
	sets := []set.Set{
		set.New(1, 5, 9, 200),
		set.New(3),
		set.New(),
		set.New(1, 2, 3, 4, 5, 6, 7, 8, 9, 10),
	}
	dst := make(Signature, 32)
	for _, s := range sets {
		want := f.Sign(s)
		f.SignInto(s, dst)
		for i := range want {
			if dst[i] != want[i] {
				t.Fatalf("set %v coordinate %d: SignInto %d, Sign %d", s, i, dst[i], want[i])
			}
		}
	}
}

// TestSignIntoMatchesSignSmallFamily repeats the check on a short k=12
// family, the width the filter tests sign with.
func TestSignIntoMatchesSignSmallFamily(t *testing.T) {
	f, err := NewFamily(12, 9)
	if err != nil {
		t.Fatal(err)
	}
	s := set.New(4, 8, 15, 16, 23, 42)
	want := f.Sign(s)
	dst := make(Signature, 12)
	f.SignInto(s, dst)
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("coordinate %d: SignInto %d, Sign %d", i, dst[i], want[i])
		}
	}
}

// TestSignIntoReuse checks a reused destination is fully overwritten —
// stale coordinates from a previous set must not leak through.
func TestSignIntoReuse(t *testing.T) {
	f, err := NewFamily(16, 3)
	if err != nil {
		t.Fatal(err)
	}
	dst := make(Signature, 16)
	f.SignInto(set.New(1, 2, 3), dst)
	f.SignInto(set.New(900, 901), dst)
	want := f.Sign(set.New(900, 901))
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("reused dst coordinate %d: %d, want %d", i, dst[i], want[i])
		}
	}
}

// TestSignIntoWrongLengthPanics pins the contract: dst must be exactly k
// coordinates.
func TestSignIntoWrongLengthPanics(t *testing.T) {
	f, err := NewFamily(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("short destination accepted")
		}
	}()
	f.SignInto(set.New(1), make(Signature, 7))
}
