package ssr

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestAddIDsRejectsInternedCollisions pins the Add/AddIDs mixing contract:
// interned ids are dense from zero, so an external id below the current
// dictionary size would silently alias an interned element and corrupt
// every similarity the aliased sets participate in. Such ids must be
// rejected, ids at or above the dictionary size must keep working, and
// pure-AddIDs collections (empty dictionary) must accept any numbering.
func TestAddIDsRejectsInternedCollisions(t *testing.T) {
	pure := NewCollection()
	if _, err := pure.AddIDs(0, 1, 2); err != nil {
		t.Fatalf("pure AddIDs collection rejected id 0: %v", err)
	}

	c := NewCollection()
	c.Add("alpha", "beta", "gamma") // interns ids 0, 1, 2
	if _, err := c.AddIDs(1, 500); err == nil {
		t.Fatal("AddIDs accepted external id 1 inside the interned space [0, 3)")
	} else if !strings.Contains(err.Error(), "collides") {
		t.Fatalf("collision error does not explain itself: %v", err)
	}
	sid, err := c.AddIDs(3, 500)
	if err != nil {
		t.Fatalf("AddIDs rejected non-colliding ids: %v", err)
	}
	if sid != 1 {
		t.Fatalf("AddIDs sid = %d, want 1", sid)
	}
	// The rejected call must not have appended a set.
	if c.Len() != 2 {
		t.Fatalf("collection length %d after one rejected AddIDs, want 2", c.Len())
	}
	// Interning more elements moves the boundary.
	c.Add("delta") // id 3 now interned
	if _, err := c.AddIDs(3); err == nil {
		t.Fatal("AddIDs accepted id 3 after it was interned")
	}
}

// shardSweepQueries are fixed probes with mass at several similarity
// levels against goldenSnapshotCollection.
func shardSweepQueries() [][]string {
	var qs [][]string
	for base := 0; base < 12; base += 3 {
		var elems []string
		for j := 0; j < 9; j++ {
			elems = append(elems, fmt.Sprintf("e%d", base*6+j))
		}
		qs = append(qs, elems)
	}
	return qs
}

// sizeSkewedSet is member i of sizeSkewedCollection: huge and tiny sets
// interleaved with no overlap, so at higher shard counts some shards hold
// only sets whose size is far from the query's.
func sizeSkewedSet(i int) []string {
	n := 4
	if i%2 == 0 {
		n = 400
	}
	elems := make([]string, n)
	for j := range elems {
		elems[j] = fmt.Sprintf("x%d-%d", i, j)
	}
	return elems
}

func sizeSkewedCollection() *Collection {
	c := NewCollection()
	for i := 0; i < 40; i++ {
		c.Add(sizeSkewedSet(i)...)
	}
	return c
}

// sparseSet is member i of sparseCollection, which has fewer sets than
// the larger shard counts under test, so some shards are empty.
func sparseSet(i int) []string {
	elems := make([]string, 10)
	for j := range elems {
		elems[j] = fmt.Sprintf("s%d-e%d", i, j)
	}
	return elems
}

func sparseCollection() *Collection {
	c := NewCollection()
	for i := 0; i < 6; i++ {
		c.Add(sparseSet(i)...)
	}
	return c
}

// sweepRanges mixes narrow high ranges, ranges crossing the plan's cut,
// and the full range.
var sweepRanges = [][2]float64{
	{0.9, 1.0}, {0.75, 0.85}, {0.5, 1.0}, {0.1, 0.9}, {0.0, 1.0},
}

// TestPublicShardSweepIdenticalMatches builds the same collection at 1, 2,
// 3, and 8 shards through the public API and checks every range query
// answers with the identical exact-verified match list — the
// cross-shard-count determinism contract (one global D_S profile ⇒
// identical per-shard plans ⇒ identical candidacy ⇒ identical verified
// matches) — and every TopKSID with a well-formed one. The size-skewed and
// sparse collections keep lopsided and empty shards inside that contract.
func TestPublicShardSweepIdenticalMatches(t *testing.T) {
	members := func(set func(int) []string, sids []int) [][]string {
		var qs [][]string
		for _, sid := range sids {
			qs = append(qs, set(sid))
		}
		return qs
	}
	skewedSIDs, sparseSIDs := []int{0, 1, 5, 17, 30, 39}, []int{0, 2, 3, 5}
	for _, in := range []struct {
		name    string
		coll    func() *Collection
		queries [][]string
		ranges  [][2]float64
		sids    []int // TopKSID probes, members without duplicates
	}{
		{"golden", goldenSnapshotCollection, shardSweepQueries(), [][2]float64{{0.3, 1.0}}, []int{0, 7, 40}},
		{"size-skewed", sizeSkewedCollection, members(sizeSkewedSet, skewedSIDs), sweepRanges, skewedSIDs},
		{"sparse", sparseCollection, members(sparseSet, sparseSIDs), sweepRanges, sparseSIDs},
	} {
		var want []string
		for _, shards := range []int{1, 2, 3, 8} {
			label := fmt.Sprintf("%s shards=%d", in.name, shards)
			opt := goldenSnapshotOptions()
			opt.Shards = shards
			ix, err := Build(in.coll(), opt)
			if err != nil {
				t.Fatalf("%s: Build: %v", label, err)
			}
			if ix.Shards() != shards {
				t.Fatalf("%s: Shards() = %d", label, ix.Shards())
			}
			var got []string
			total := 0
			for qi, q := range in.queries {
				for _, r := range in.ranges {
					matches, stats, err := ix.Query(q, r[0], r[1])
					if err != nil {
						t.Fatalf("%s query %d [%g,%g]: %v", label, qi, r[0], r[1], err)
					}
					if len(stats.PerShard) != shards {
						t.Fatalf("%s query %d: %d per-shard stats", label, qi, len(stats.PerShard))
					}
					var agg ShardStats
					for _, ps := range stats.PerShard {
						agg.Candidates += ps.Candidates
						agg.Results += ps.Results
					}
					if agg.Candidates != stats.Candidates || agg.Results != stats.Results {
						t.Fatalf("%s query %d: per-shard stats (%d cand, %d res) do not sum to the aggregate (%d, %d)",
							label, qi, agg.Candidates, agg.Results, stats.Candidates, stats.Results)
					}
					got = append(got, fmt.Sprintf("query %d [%g,%g]: %v", qi, r[0], r[1], matches))
					total += len(matches)
				}
			}
			if total == 0 {
				t.Fatalf("%s: sweep found no matches at all (fixture too sparse to mean anything)", label)
			}
			for _, sid := range in.sids {
				for _, k := range []int{1, 3, 10} {
					matches, _, err := ix.TopKSID(sid, k)
					if err != nil {
						t.Fatalf("%s TopKSID(%d, %d): %v", label, sid, k, err)
					}
					// A shard's walk stops once it holds k results, so the
					// zero-similarity tail legitimately varies with the
					// shard count; what every count owes is a well-formed
					// answer led by the member itself.
					if len(matches) == 0 || len(matches) > k || matches[0] != (Match{SID: sid, Similarity: 1}) {
						t.Fatalf("%s TopKSID(%d, %d) = %v, want 1..%d matches led by the member itself", label, sid, k, matches, k)
					}
					for i := 1; i < len(matches); i++ {
						a, b := matches[i-1], matches[i]
						if a.Similarity < b.Similarity || (a.Similarity == b.Similarity && a.SID >= b.SID) {
							t.Fatalf("%s TopKSID(%d, %d) = %v: out of order at %d", label, sid, k, matches, i)
						}
					}
				}
			}
			if want == nil {
				want = got
				continue
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s: answer diverges from the single-shard one:\n  got  %s\n  want %s", label, got[i], want[i])
				}
			}
		}
	}
}

// TestShardedSnapshotRoundTrip saves and reloads a 3-shard index through
// the public snapshot format: shard count, sid numbering, and query
// answers must all survive.
func TestShardedSnapshotRoundTrip(t *testing.T) {
	opt := goldenSnapshotOptions()
	opt.Shards = 3
	ix, err := Build(goldenSnapshotCollection(), opt)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	re, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if re.Shards() != 3 {
		t.Fatalf("reloaded with %d shards, want 3", re.Shards())
	}
	for qi, q := range shardSweepQueries() {
		a, _, err := ix.Query(q, 0.3, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := re.Query(q, 0.3, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("query %d: reloaded index diverged", qi)
		}
	}
	// A second Save must be byte-identical (deterministic serialization).
	var buf2 bytes.Buffer
	if err := re.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("sharded snapshot is not byte-stable across a save/load cycle")
	}
}

// TestBuildShardDeterminism: two public builds with the same (Seed,
// Shards) must serialize bit-identically.
func TestBuildShardDeterminism(t *testing.T) {
	opt := goldenSnapshotOptions()
	opt.Shards = 4
	a, err := Build(goldenSnapshotCollection(), opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(goldenSnapshotCollection(), opt)
	if err != nil {
		t.Fatal(err)
	}
	var ba, bb bytes.Buffer
	if err := a.Save(&ba); err != nil {
		t.Fatal(err)
	}
	if err := b.Save(&bb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ba.Bytes(), bb.Bytes()) {
		t.Fatal("two identically-seeded sharded builds serialized differently")
	}
}

// TestShardedMixedStress is the public-API -race workhorse for the write
// lane: concurrent Adds, Removes, and range queries against a durable
// index, at one shard (lane locked before the sid is reserved) and four
// (sid reserved first, naming the lane). During the storm only absence of
// errors, deadlocks, and races is asserted; afterwards the surviving state
// must round-trip through close-and-recover bit-identically.
func TestShardedMixedStress(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			shardedMixedStress(t, shards)
		})
	}
}

func shardedMixedStress(t *testing.T, shards int) {
	dir := t.TempDir()
	ix, err := CreateDurable(dir, bookstore(), durableShardedBuildOpts(shards),
		DurableOptions{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}

	const writers, readers, perWriter = 4, 3, 25
	var wg sync.WaitGroup
	errCh := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				sid, err := ix.Add(fmt.Sprintf("stress-%d-%d", w, i), "shared-elem")
				if err != nil {
					errCh <- fmt.Errorf("writer %d add %d: %w", w, i, err)
					return
				}
				if i%6 == 2 {
					if err := ix.Remove(sid); err != nil {
						errCh <- fmt.Errorf("writer %d remove %d: %w", w, sid, err)
						return
					}
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				if _, _, err := ix.Query([]string{"dune", "foundation", "shared-elem"}, 0.2, 1.0); err != nil {
					errCh <- fmt.Errorf("reader %d query %d: %w", r, i, err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	before := saveBytes(t, ix)
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDurable(dir, DurableOptions{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if !bytes.Equal(saveBytes(t, re), before) {
		t.Fatal("post-stress recovery produced a different snapshot")
	}
}
