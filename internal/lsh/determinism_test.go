package lsh

import (
	"math/rand"
	"testing"
)

// TestGroupDeterminism verifies that the same GroupOptions.Seed reproduces
// the sampled bit positions exactly — the property that lets snapshot
// loading rebuild filter indices instead of persisting them.
func TestGroupDeterminism(t *testing.T) {
	opt := GroupOptions{Code: bitCode(t), K: 512, R: 12, L: 6, Seed: 4242, ExpectedEntries: 100}
	g1, err := NewGroup(0, opt)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := NewGroup(0, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < opt.L; i++ {
		p1, p2 := g1.Positions(i), g2.Positions(i)
		if len(p1) != len(p2) {
			t.Fatalf("table %d: %d vs %d positions", i, len(p1), len(p2))
		}
		for j := range p1 {
			if p1[j] != p2[j] {
				t.Fatalf("table %d position %d differs across same-seed groups: %d vs %d", i, j, p1[j], p2[j])
			}
		}
	}
}

// TestGroupRandInjection verifies GroupOptions.Rand is exactly the seeded
// path with the rng lifted out, and that it takes precedence over Seed.
func TestGroupRandInjection(t *testing.T) {
	seeded := GroupOptions{Code: bitCode(t), K: 256, R: 10, L: 4, Seed: 99, ExpectedEntries: 50}
	injected := seeded
	injected.Seed = 0 // ignored when Rand is set
	injected.Rand = rand.New(rand.NewSource(99))

	g1, err := NewGroup(0, seeded)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := NewGroup(0, injected)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < seeded.L; i++ {
		p1, p2 := g1.Positions(i), g2.Positions(i)
		for j := range p1 {
			if p1[j] != p2[j] {
				t.Fatalf("table %d position %d: seeded %d, injected %d", i, j, p1[j], p2[j])
			}
		}
	}
}
