package ssr

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// goldenSnapshotPath pins the exact Save bytes of a fixed single-shard
// build. The fixture was last regenerated when the snapshot became one
// magic and one gob value (run with SSR_WRITE_GOLDEN=1 to regenerate —
// only legitimate when the snapshot format itself versions up
// deliberately).
const goldenSnapshotPath = "testdata/golden-shard1.snap"

// goldenSnapshotCollection is a fixed, deterministic collection: twelve
// overlapping families of sets plus a unique element per set, so the
// similarity distribution has mass across the whole [0, 1] range.
func goldenSnapshotCollection() *Collection {
	c := NewCollection()
	for i := 0; i < 120; i++ {
		var elems []string
		base := i % 12
		for j := 0; j < 8+i%5; j++ {
			elems = append(elems, fmt.Sprintf("e%d", base*6+j))
		}
		elems = append(elems, fmt.Sprintf("u%d", i))
		c.Add(elems...)
	}
	return c
}

func goldenSnapshotOptions() Options {
	return Options{
		Budget:    60,
		MinHashes: 24,
		HashBits:  6,
		Seed:      7,
		PageSize:  1024,
	}
}

// TestGoldenShard1SnapshotBytes asserts the default (single-shard) build
// serializes byte-for-byte like the fixture: same magic, same gob stream.
// Save is a pure function of the index state, so any change to these
// bytes is a change of the snapshot format.
func TestGoldenShard1SnapshotBytes(t *testing.T) {
	ix, err := Build(goldenSnapshotCollection(), goldenSnapshotOptions())
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if os.Getenv("SSR_WRITE_GOLDEN") == "1" {
		if err := os.MkdirAll(filepath.Dir(goldenSnapshotPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenSnapshotPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", goldenSnapshotPath, buf.Len())
	}
	want, err := os.ReadFile(goldenSnapshotPath)
	if err != nil {
		t.Fatalf("reading golden fixture: %v (generate with SSR_WRITE_GOLDEN=1)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("single-shard Save bytes differ from golden fixture: got %d bytes, want %d", buf.Len(), len(want))
	}

	// An explicit Shards: 1 builds the same one-shard engine as the default.
	explicitOpt := goldenSnapshotOptions()
	explicitOpt.Shards = 1
	explicit, err := Build(goldenSnapshotCollection(), explicitOpt)
	if err != nil {
		t.Fatalf("Build(Shards: 1): %v", err)
	}
	var ebuf bytes.Buffer
	if err := explicit.Save(&ebuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ebuf.Bytes(), want) {
		t.Fatal("explicit Shards: 1 Save bytes differ from the golden fixture")
	}

	// The fixture must also still load and answer queries.
	loaded, err := Load(bytes.NewReader(want))
	if err != nil {
		t.Fatalf("Load(golden): %v", err)
	}
	q := []string{"e0", "e1", "e2", "e3", "e4", "e5", "e6", "e7", "u0"}
	m1, _, err := ix.Query(q, 0.5, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	m2, _, err := loaded.Query(q, 0.5, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(m1) == 0 || len(m1) != len(m2) {
		t.Fatalf("golden reload answers differ: %d vs %d matches", len(m1), len(m2))
	}
	for i := range m1 {
		if m1[i] != m2[i] {
			t.Fatalf("golden reload match %d differs: %+v vs %+v", i, m1[i], m2[i])
		}
	}
}

// TestGoldenBytesIndependentOfHistory encodes a value of a type of its
// own, then saves a 4-shard index and writes one of its lane
// checkpoints, and only then requires the golden collection's one-shard
// Save to equal the fixture. gob numbers types in first-use order and
// writes the numbers into the stream, so this passes only while the one
// type-id pin covers every image type — also when this test runs alone.
func TestGoldenBytesIndependentOfHistory(t *testing.T) {
	type unrelated struct{ A []float64 }
	if err := gob.NewEncoder(io.Discard).Encode(unrelated{A: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	opt := goldenSnapshotOptions()
	opt.Shards = 4
	sharded, err := Build(goldenSnapshotCollection(), opt)
	if err != nil {
		t.Fatal(err)
	}
	saveBytes(t, sharded)
	if err := sharded.saveShard(io.Discard, 2); err != nil {
		t.Fatal(err)
	}
	ix, err := Build(goldenSnapshotCollection(), goldenSnapshotOptions())
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(goldenSnapshotPath)
	if err != nil {
		t.Fatal(err)
	}
	if got := saveBytes(t, ix); !bytes.Equal(got, want) {
		t.Fatalf("one-shard Save after other images: %d bytes differ from the %d-byte fixture", len(got), len(want))
	}
}
