package ssr

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

func TestPublicSaveLoadRoundTrip(t *testing.T) {
	c := bookstore()
	ix, err := Build(c, Options{Budget: 24, MinHashes: 48, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatalf("save: %v", err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	// String queries keep working (the dictionary round-tripped).
	want, _, err := ix.Query([]string{"dune", "foundation", "hyperion", "neuromancer"}, 0.9, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := loaded.Query([]string{"dune", "foundation", "hyperion", "neuromancer"}, 0.9, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("reloaded index returned %d matches, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("match %d differs: %+v vs %+v", i, got[i], want[i])
		}
	}
	// Get resolves names after reload.
	names, err := loaded.coll.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 4 {
		t.Errorf("Get(0) after reload = %v", names)
	}
}

// TestSignatureLengthBounds pins Build and Load to one bound on k: the
// largest signature Build accepts round-trips through Save and Load, and
// one coordinate more is rejected at Build rather than at Load.
func TestSignatureLengthBounds(t *testing.T) {
	c := NewCollection()
	for i := 0; i < 6; i++ {
		c.Add(fmt.Sprint("a", i), fmt.Sprint("b", i), "shared")
	}
	opt := Options{Budget: 4, HashBits: 2, MinHashes: 1 << 16}
	ix, err := Build(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); err != nil {
		t.Fatalf("k=%d: %v", opt.MinHashes, err)
	}
	opt.MinHashes++
	if _, err := Build(c, opt); err == nil {
		t.Errorf("k=%d accepted", opt.MinHashes)
	}
}

func TestPublicLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("nope")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Load(strings.NewReader("SSRPUB1\njunkjunk")); err == nil {
		t.Error("corrupt payload accepted")
	}
}

func TestPublicSaveLoadIDCollection(t *testing.T) {
	c := NewCollection()
	for i := 0; i < 80; i++ {
		c.AddIDs(uint64(i*10), uint64(i*10+1), uint64(i*10+2))
	}
	ix, err := Build(c, Options{Budget: 16, MinHashes: 32, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := loaded.QueryIDs([]uint64{0, 1, 2}, 0.9, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || got[0].SID != 0 {
		t.Errorf("QueryIDs after reload = %v", got)
	}
}
