package ssr

import (
	"bytes"
	"math"
	"slices"
	"testing"
)

// FuzzLoad feeds arbitrary bytes to the public snapshot loader: corrupt or
// truncated snapshots must return an error, never panic, and never
// allocate unboundedly. Mirrors internal/storage's FuzzDecodeCorrupt
// discipline at the top of the persistence stack.
func FuzzLoad(f *testing.F) {
	// Seed with genuine images (with a tombstone, exercising the
	// sid-preserving layout) so mutations explore near-valid encodings: a
	// one-shard Save, a 4-shard Save and one lane's checkpoint of it.
	var seeds [][]byte
	for _, shards := range []int{1, 4} {
		ix, err := Build(bookstore(), Options{Budget: 24, MinHashes: 32, Seed: 3, Shards: shards})
		if err != nil {
			f.Fatal(err)
		}
		if err := ix.Remove(1); err != nil {
			f.Fatal(err)
		}
		var snap bytes.Buffer
		if err := ix.Save(&snap); err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, snap.Bytes())
		if shards > 1 {
			var lane bytes.Buffer
			if err := ix.saveShard(&lane, 1); err != nil {
				f.Fatal(err)
			}
			seeds = append(seeds, lane.Bytes())
		}
	}
	one := seeds[0]
	f.Add(one)
	f.Add(one[:len(one)/2])
	// The signing-family trailer an older core format appended.
	f.Add(append(slices.Clip(one), "SSRFAM1\n\x02\x40\x28\x00\x00\x00"...))
	f.Add([]byte("SSRPUB1\n"))
	f.Add([]byte{})
	for _, seed := range seeds[1:] {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		loaded, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		// The rare mutation that still decodes must yield a usable index.
		if _, _, qerr := loaded.Query([]string{"dune"}, 0.5, 1.0); qerr != nil {
			t.Fatalf("loaded index cannot query: %v", qerr)
		}
	})
}

// FuzzBuildRoundTrip drives Build with hostile Options: NaN, infinite,
// negative, zero and huge values. Build must refuse them with an error,
// or its index must round-trip: Save → Load → Save gives identical bytes,
// and CreateDurable → Close → OpenDurable succeeds. The budget comes from
// a small range and shrink keeps valid signature lengths and shard counts
// small, so each execution stays fast; the 2^16-table edge is
// TestBuildValidation's.
func FuzzBuildRoundTrip(f *testing.F) {
	f.Add(uint8(28), 0.9, int64(32), int8(6), int16(16), int32(0), int32(0), int64(3), int32(0), int64(1))
	f.Add(uint8(28), math.NaN(), int64(0), int8(0), int16(0), int32(-1), int32(-1), int64(0), int32(-1), int64(-1))
	f.Add(uint8(5), math.Inf(1), int64(-1), int8(21), int16(-3), int32(1<<20), int32(1<<21), int64(-7), int32(1<<30), int64(1025))
	f.Add(uint8(44), 0.5, int64(16), int8(20), int16(2000), int32(18), int32(1<<20), int64(1), int32(5), int64(4))
	f.Add(uint8(12), 0.5, int64(1<<16+1), int8(20), int16(1), int32(786437), int32(1<<20), int64(9), int32(-5), int64(3))
	f.Add(uint8(12), 0.5, int64(64), int8(20), int16(1), int32(786437), int32(1<<20), int64(9), int32(-5), int64(3))
	f.Add(uint8(60), 1.0, int64(math.MaxInt64), int8(1), int16(1024), int32(786438), int32(0), int64(2), int32(1), int64(1024))
	f.Fuzz(func(t *testing.T, budget uint8, recall float64, minHashes int64, hashBits int8, maxFIs int16, pageSize, payload int32, seed int64, distSample int32, shards int64) {
		opt := Options{
			Budget:                 int(budget%64) - 4,
			RecallTarget:           recall,
			MinHashes:              shrink(minHashes, 128, 1<<16),
			HashBits:               int(hashBits),
			MaxFilterIndices:       int(maxFIs),
			PageSize:               int(pageSize),
			PayloadBytesPerElement: int(payload),
			Seed:                   seed,
			DistSample:             int(distSample),
			Shards:                 shrink(shards, 8, 1<<10),
		}
		ix, err := Build(bookstore(), opt)
		if err != nil {
			return
		}
		var saved, again bytes.Buffer
		if err := ix.Save(&saved); err != nil {
			t.Fatalf("%+v: Save: %v", opt, err)
		}
		loaded, err := Load(bytes.NewReader(saved.Bytes()))
		if err != nil {
			t.Fatalf("%+v: Build accepted what Load refuses: %v", opt, err)
		}
		if err := loaded.Save(&again); err != nil {
			t.Fatalf("%+v: Save after Load: %v", opt, err)
		}
		if !bytes.Equal(saved.Bytes(), again.Bytes()) {
			t.Fatalf("%+v: Save → Load → Save changed the bytes", opt)
		}
		dir := t.TempDir()
		dix, err := CreateDurable(dir, bookstore(), opt, DurableOptions{Sync: SyncNever})
		if err != nil {
			t.Fatalf("%+v: CreateDurable refused what Build accepted: %v", opt, err)
		}
		if err := dix.Close(); err != nil {
			t.Fatal(err)
		}
		reopened, err := OpenDurable(dir, DurableOptions{Sync: SyncNever})
		if err != nil {
			t.Fatalf("%+v: OpenDurable of an acknowledged index: %v", opt, err)
		}
		if err := reopened.Close(); err != nil {
			t.Fatal(err)
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
