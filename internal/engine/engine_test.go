package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/minhash"
	"repro/internal/optimize"
	"repro/internal/set"
	"repro/internal/storage"
	"repro/internal/workload"
)

func coreOptions() core.Options {
	return core.Options{
		Embed:    minhash.Options{K: 64, Bits: 8, Seed: 42},
		Plan:     optimize.Options{Budget: 60, RecallTarget: 0.9},
		DistSeed: 42,
	}
}

// buildFixture builds an engine over the shared workload at the given
// shard count. Every shard count sees the same sets and the same core
// options, which is exactly the configuration the cross-shard identity
// argument covers.
func buildFixture(t *testing.T, n, shards int) (*Engine, []set.Set) {
	t.Helper()
	sets, err := workload.Generate(workload.Set1Params(n))
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	e, err := Build(sets, Options{Shards: shards, RouterSeed: 7, Core: coreOptions()})
	if err != nil {
		t.Fatalf("build shards=%d: %v", shards, err)
	}
	return e, sets
}

func matchKey(m core.Match) string {
	return fmt.Sprintf("%d@%.12f", m.SID, m.Similarity)
}

func matchKeys(ms []core.Match) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = matchKey(m)
	}
	return out
}

// TestRouterDeterministicAndBalanced pins the router contract: pure in
// (seed, shards, sid), stable across calls, and roughly balanced over a
// dense sid range.
func TestRouterDeterministicAndBalanced(t *testing.T) {
	const n, shards = 10000, 8
	counts := make([]int, shards)
	for g := uint32(0); g < n; g++ {
		si := shardOf(7, shards, g)
		if si < 0 || si >= shards {
			t.Fatalf("sid %d routed out of range: %d", g, si)
		}
		if again := shardOf(7, shards, g); again != si {
			t.Fatalf("sid %d routed to %d then %d", g, si, again)
		}
		counts[si]++
	}
	for si, c := range counts {
		// A fair hash puts ~1250 sids per shard; 3x skew means broken mixing.
		if c < n/shards/3 || c > 3*n/shards {
			t.Fatalf("shard %d holds %d of %d sids: router is unbalanced (%v)", si, c, n, counts)
		}
	}
	if shardOf(7, 1, 123) != 0 {
		t.Fatal("single shard must absorb every sid")
	}
	if shardOf(7, shards, 99) == shardOf(8, shards, 99) &&
		shardOf(7, shards, 100) == shardOf(8, shards, 100) &&
		shardOf(7, shards, 101) == shardOf(8, shards, 101) {
		t.Fatal("router ignores its seed")
	}
}

// TestShardSweepIdenticalMatches is the engine-level half of the
// cross-shard identity guarantee: the exact-verified matches of every
// query are identical at shards ∈ {1, 2, 3, 8}, because every shard plans
// from the same global distribution.
func TestShardSweepIdenticalMatches(t *testing.T) {
	const n = 400
	sets, err := workload.Generate(workload.Set1Params(n))
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	qs, err := workload.Queries(n, workload.QueryParams{Count: 25, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var baseline [][]string
	for _, shards := range []int{1, 2, 3, 8} {
		e, err := Build(sets, Options{Shards: shards, RouterSeed: 7, Core: coreOptions()})
		if err != nil {
			t.Fatalf("build shards=%d: %v", shards, err)
		}
		var got [][]string
		for _, q := range qs {
			matches, stats, err := e.QueryWithOptions(sets[q.SID], q.Lo, q.Hi, core.QueryOptions{})
			if err != nil {
				t.Fatalf("shards=%d query: %v", shards, err)
			}
			if stats.Results != len(matches) {
				t.Fatalf("shards=%d stats.Results=%d for %d matches", shards, stats.Results, len(matches))
			}
			if len(stats.PerShard) != shards {
				t.Fatalf("shards=%d has %d per-shard stat entries", shards, len(stats.PerShard))
			}
			got = append(got, matchKeys(matches))
		}
		if baseline == nil {
			baseline = got
			continue
		}
		for i := range got {
			if fmt.Sprint(got[i]) != fmt.Sprint(baseline[i]) {
				t.Fatalf("shards=%d query %d diverged:\n  got  %v\n  want %v", shards, i, got[i], baseline[i])
			}
		}
	}
}

// TestGatherTotalOrder hits the merge edge case the k-way shortcut would
// get wrong: equal similarities in different shards must interleave by
// ascending global sid, with no duplicates.
func TestGatherTotalOrder(t *testing.T) {
	// Identical sets land in different shards (router spreads consecutive
	// sids) and tie at similarity 1.0 against the query.
	base := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	var sets []set.Set
	for i := 0; i < 24; i++ {
		if i%2 == 0 {
			sets = append(sets, set.New(base...))
		} else {
			sets = append(sets, set.New(uint64(1000+i*10), uint64(1001+i*10), uint64(1002+i*10)))
		}
	}
	e, err := Build(sets, Options{Shards: 4, RouterSeed: 7, Core: coreOptions()})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	// The duplicates must span shards or the test proves nothing.
	shardsSeen := make(map[int]bool)
	for g := 0; g < len(sets); g += 2 {
		shardsSeen[e.ShardOf(uint32(g))] = true
	}
	if len(shardsSeen) < 2 {
		t.Fatalf("all duplicate sets landed in one shard; pick a different RouterSeed")
	}
	matches, _, err := e.QueryWithOptions(set.New(base...), 0.99, 1.0, core.QueryOptions{})
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if len(matches) != 12 {
		t.Fatalf("got %d matches, want the 12 duplicates", len(matches))
	}
	seen := make(map[storage.SID]bool)
	for i, m := range matches {
		if seen[m.SID] {
			t.Fatalf("sid %d returned twice", m.SID)
		}
		seen[m.SID] = true
		if i > 0 {
			prev := matches[i-1]
			if m.Similarity > prev.Similarity ||
				(m.Similarity == prev.Similarity && m.SID <= prev.SID) {
				t.Fatalf("order violated at %d: %v after %v", i, m, prev)
			}
		}
	}
}

// TestEmptyShardQueries covers the degenerate partition: more shards than
// sets, so most shards are empty, and queries must still gather cleanly.
func TestEmptyShardQueries(t *testing.T) {
	sets := []set.Set{
		set.New(1, 2, 3, 4, 5),
		set.New(1, 2, 3, 4, 6),
	}
	e, err := Build(sets, Options{Shards: 8, RouterSeed: 7, Core: coreOptions()})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	matches, _, err := e.QueryWithOptions(sets[0], 0.5, 1.0, core.QueryOptions{})
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if len(matches) == 0 {
		t.Fatal("query over mostly-empty shards found nothing")
	}
	disjoint, _, err := e.QueryWithOptions(set.New(900, 901), 0.5, 1.0, core.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(disjoint) != 0 {
		t.Fatalf("disjoint query matched %d sets", len(disjoint))
	}
}

// TestEveryReadProbesEveryShard pins the callers of the one scatter:
// no read path skips a shard, however empty, so ShardsQueried and the
// per-shard breakdown always span the whole engine.
func TestEveryReadProbesEveryShard(t *testing.T) {
	sets := []set.Set{
		set.New(1, 2, 3, 4, 5),
		set.New(1, 2, 3, 4, 6),
	}
	for _, shards := range []int{1, 8} {
		e, err := Build(sets, Options{Shards: shards, RouterSeed: 7, Core: coreOptions()})
		if err != nil {
			t.Fatalf("build shards=%d: %v", shards, err)
		}
		stats := map[string]QueryStats{}
		if _, stats["QueryWithOptions"], err = e.QueryWithOptions(sets[0], 0.5, 1.0, core.QueryOptions{}); err != nil {
			t.Fatal(err)
		}
		if _, stats["TopK"], err = e.TopK(sets[0], 2); err != nil {
			t.Fatal(err)
		}
		for name, st := range stats {
			if st.ShardsQueried != e.NumShards() || len(st.PerShard) != e.NumShards() {
				t.Errorf("shards=%d %s: ShardsQueried %d, %d per-shard stats, want %d of each",
					shards, name, st.ShardsQueried, len(st.PerShard), e.NumShards())
			}
		}
	}
}

// batchQuery is one entry of a test batch.
type batchQuery struct {
	q      set.Set
	lo, hi float64
}

// workloadBatch draws count distinct workload queries over sets: no two
// entries share a set and range, so no entry's result-cache outcome
// depends on the order a concurrent batch runs them in.
func workloadBatch(t *testing.T, sets []set.Set, count int, seed int64) []batchQuery {
	t.Helper()
	qs, err := workload.Queries(len(sets), workload.QueryParams{Count: count, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	var batch []batchQuery
	seen := map[string]bool{}
	for _, q := range qs {
		key := fmt.Sprint(sets[q.SID].Elems(), q.Lo, q.Hi)
		if !seen[key] {
			seen[key] = true
			batch = append(batch, batchQuery{sets[q.SID], q.Lo, q.Hi})
		}
	}
	return batch
}

// batchAnswer is one entry's answer.
type batchAnswer struct {
	matches []core.Match
	stats   QueryStats
	err     error
}

// runBatch answers a batch the way the public batch does: the worker
// pool is split across at most len(batch) batch workers with
// core.SplitPool, and each batch worker pulls entries and runs them as
// single queries with its share as the query's own Workers.
func runBatch(e *Engine, batch []batchQuery, opt core.QueryOptions) []batchAnswer {
	out := make([]batchAnswer, len(batch))
	pool := core.ResolveWorkers(opt.Workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, share := range core.SplitPool(pool, min(pool, len(batch))) {
		inner := opt
		inner.Workers = share
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(batch); i = int(next.Add(1)) - 1 {
				b, r := batch[i], &out[i]
				r.matches, r.stats, r.err = e.QueryWithOptions(b.q, b.lo, b.hi, inner)
			}
		}()
	}
	wg.Wait()
	return out
}

// TestBatchMatchesSingleQueries checks a batch of concurrent single
// queries gathers, per entry, exactly what the query alone gathers on a
// real workload across a sharded engine.
func TestBatchMatchesSingleQueries(t *testing.T) {
	e, sets := buildFixture(t, 300, 3)
	batch := workloadBatch(t, sets, 12, 9)
	for i, r := range runBatch(e, batch, core.QueryOptions{Workers: 4}) {
		if r.err != nil {
			t.Fatalf("batch entry %d: %v", i, r.err)
		}
		single, _, err := e.QueryWithOptions(batch[i].q, batch[i].lo, batch[i].hi, core.QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(matchKeys(r.matches)) != fmt.Sprint(matchKeys(single)) {
			t.Fatalf("batch entry %d diverged from single query", i)
		}
	}
}

// TestInsertDeleteRouting exercises the global↔local mapping through
// mutation: inserts land on the routed shard under fresh global sids,
// deletes tombstone the right local sid, and queries see the edits.
func TestInsertDeleteRouting(t *testing.T) {
	e, _ := buildFixture(t, 200, 4)
	before := e.Len()
	probe := set.New(5000, 5001, 5002, 5003)
	g, err := e.Insert(probe)
	if err != nil {
		t.Fatalf("insert: %v", err)
	}
	if int(g) != before {
		t.Fatalf("insert allocated global sid %d, want %d", g, before)
	}
	if e.Len() != before+1 || e.NumAllocated() != before+1 {
		t.Fatalf("after insert Len=%d NumAllocated=%d want %d", e.Len(), e.NumAllocated(), before+1)
	}
	matches, _, err := e.QueryWithOptions(probe, 0.9, 1.0, core.QueryOptions{})
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	found := false
	for _, m := range matches {
		if m.SID == storage.SID(g) {
			found = true
		}
	}
	if !found {
		t.Fatalf("inserted sid %d not returned by its own query (matches %v)", g, matches)
	}
	if err := e.Delete(g); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if e.Len() != before || e.NumAllocated() != before+1 {
		t.Fatalf("after delete Len=%d NumAllocated=%d", e.Len(), e.NumAllocated())
	}
	matches, _, err = e.QueryWithOptions(probe, 0.9, 1.0, core.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range matches {
		if m.SID == storage.SID(g) {
			t.Fatalf("deleted sid %d still returned", g)
		}
	}
	if err := e.Delete(g); err == nil {
		t.Fatal("double delete succeeded")
	}
	if err := e.Delete(uint32(e.NumAllocated() + 10)); err == nil {
		t.Fatal("delete of unallocated sid succeeded")
	}
	// Freshly inserted sets are queryable across shard boundaries too.
	other := set.New(5000, 5001, 5002, 5004)
	g2, err := e.Insert(other)
	if err != nil {
		t.Fatal(err)
	}
	matches, _, err = e.QueryWithOptions(probe, 0.3, 1.0, core.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	found = false
	for _, m := range matches {
		if m.SID == storage.SID(g2) {
			found = true
		}
	}
	if !found {
		t.Fatalf("cross-insert sid %d not found", g2)
	}
}

// TestPersistRoundTrip saves a mutated sharded engine and reloads it:
// mapping, tombstones, and query results must all survive, and the
// reloaded engine must keep accepting writes at the right global sids.
func TestPersistRoundTrip(t *testing.T) {
	e, sets := buildFixture(t, 200, 3)
	if _, err := e.Insert(set.New(7000, 7001, 7002)); err != nil {
		t.Fatal(err)
	}
	if err := e.Delete(3); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatalf("save: %v", err)
	}
	e2, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if e2.NumShards() != 3 || e2.Len() != e.Len() || e2.NumAllocated() != e.NumAllocated() {
		t.Fatalf("reload shape: shards=%d len=%d alloc=%d, want 3/%d/%d",
			e2.NumShards(), e2.Len(), e2.NumAllocated(), e.Len(), e.NumAllocated())
	}
	for _, q := range []struct{ lo, hi float64 }{{0.5, 1.0}, {0.2, 0.6}} {
		m1, _, err := e.QueryWithOptions(sets[10], q.lo, q.hi, core.QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		m2, _, err := e2.QueryWithOptions(sets[10], q.lo, q.hi, core.QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(matchKeys(m1)) != fmt.Sprint(matchKeys(m2)) {
			t.Fatalf("range [%g,%g] diverged after reload", q.lo, q.hi)
		}
	}
	want := e.NumAllocated()
	g, err := e2.Insert(set.New(8000, 8001))
	if err != nil {
		t.Fatal(err)
	}
	if int(g) != want {
		t.Fatalf("post-reload insert got sid %d, want %d", g, want)
	}
	// Determinism: saving the reloaded engine reproduces the bytes.
	var buf2 bytes.Buffer
	if err := e2.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	_ = buf2 // shapes differ only by the post-load insert; no byte compare here
}

// TestBuildDeterminism pins bit-identical sharded builds for a fixed
// (seed, shards): two independent builds must serialize to the same
// bytes.
func TestBuildDeterminism(t *testing.T) {
	sets, err := workload.Generate(workload.Set1Params(250))
	if err != nil {
		t.Fatal(err)
	}
	var snaps [2][]byte
	for i := range snaps {
		e, err := Build(sets, Options{Shards: 4, RouterSeed: 7, Core: coreOptions()})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := e.Save(&buf); err != nil {
			t.Fatal(err)
		}
		snaps[i] = buf.Bytes()
	}
	if !bytes.Equal(snaps[0], snaps[1]) {
		t.Fatal("two builds with identical (seed, shards) serialized differently")
	}
}

// TestApplyHolesAndOrder replays WAL-shaped inserts out of global order
// with gaps — exactly what per-shard crash truncation produces — and
// checks holes stay holes, duplicates are rejected, and misrouted records
// are refused.
func TestApplyHolesAndOrder(t *testing.T) {
	sets, err := workload.Generate(workload.Set1Params(50))
	if err != nil {
		t.Fatal(err)
	}
	e, err := Build(sets[:0], Options{Shards: 3, RouterSeed: 7, Core: core.Options{
		Embed:        minhash.Options{K: 64, Bits: 8, Seed: 42},
		PlanOverride: planFor(t, sets),
		DistSeed:     42,
	}})
	if err != nil {
		t.Fatalf("empty sharded build: %v", err)
	}
	// Apply sids 0, 2, 5, 1 (out of order, 3 and 4 lost in the "crash").
	for _, g := range []uint32{0, 2, 5, 1} {
		if err := e.Apply(e.ShardOf(g), g, sets[g]); err != nil {
			t.Fatalf("replay sid %d: %v", g, err)
		}
	}
	if e.Len() != 4 {
		t.Fatalf("Len=%d after replaying 4 records", e.Len())
	}
	if e.NumAllocated() != 6 {
		t.Fatalf("NumAllocated=%d, want 6 (holes at 3, 4)", e.NumAllocated())
	}
	if err := e.Apply(e.ShardOf(2), 2, sets[2]); err == nil {
		t.Fatal("duplicate replay of sid 2 succeeded")
	}
	wrong := (e.ShardOf(7) + 1) % 3
	if err := e.Apply(wrong, 7, sets[7]); err == nil {
		t.Fatal("misrouted replay succeeded")
	}
	if err := e.Delete(3); err == nil {
		t.Fatal("delete of a hole succeeded")
	}
	// A live reservation lands past the replayed frontier and applies once.
	g, si := e.Reserve()
	if g != 6 {
		t.Fatalf("Reserve after replay = sid %d, want 6", g)
	}
	if err := e.Apply(si, g, sets[6]); err != nil {
		t.Fatalf("apply reserved sid %d: %v", g, err)
	}
	if err := e.Apply(si, g, sets[6]); err == nil {
		t.Fatal("double apply of a reserved sid succeeded")
	}
	// Holes never surface in queries.
	for _, g := range []uint32{0, 1, 2, 5, 6} {
		matches, _, err := e.QueryWithOptions(sets[g], 0.99, 1.0, core.QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range matches {
			if m.SID == 3 || m.SID == 4 {
				t.Fatalf("hole sid %d resurfaced in query results", m.SID)
			}
		}
	}
}

// TestApplyOneShard pins the one-shard contract: global sids are core
// sids, so Apply accepts exactly the next sid — the check every replay
// and follower path relies on to catch a log that skips or repeats one.
func TestApplyOneShard(t *testing.T) {
	sets, err := workload.Generate(workload.Set1Params(50))
	if err != nil {
		t.Fatal(err)
	}
	e, err := Build(sets[:10], Options{Shards: 1, Core: coreOptions()})
	if err != nil {
		t.Fatal(err)
	}
	g, si := e.Reserve()
	if g != 10 || si != 0 {
		t.Fatalf("Reserve = (%d, %d), want (10, 0)", g, si)
	}
	if e.NumAllocated() != 10 {
		t.Fatalf("one-shard Reserve allocated: NumAllocated=%d", e.NumAllocated())
	}
	for _, bad := range []uint32{9, 11, 100} {
		if err := e.Apply(0, bad, sets[bad%50]); err == nil {
			t.Fatalf("apply of sid %d with next sid 10 succeeded", bad)
		}
	}
	if err := e.Apply(1, 10, sets[10]); err == nil {
		t.Fatal("apply to shard 1 of a one-shard engine succeeded")
	}
	if err := e.Apply(0, 10, sets[10]); err != nil {
		t.Fatalf("apply of the next sid: %v", err)
	}
	if err := e.Apply(0, 10, sets[10]); err == nil {
		t.Fatal("double apply of sid 10 succeeded")
	}
	if e.Len() != 11 || e.NumAllocated() != 11 {
		t.Fatalf("Len=%d NumAllocated=%d after one apply, want 11, 11", e.Len(), e.NumAllocated())
	}
	if sid, err := e.Insert(sets[11]); err != nil || sid != 11 {
		t.Fatalf("Insert after Apply = %d, %v; want 11", sid, err)
	}
}

// planFor derives a real plan to reuse as an override for empty builds
// (empty shards cannot profile a distribution).
func planFor(t *testing.T, sets []set.Set) *optimize.Plan {
	t.Helper()
	ix, err := core.Build(sets, coreOptions())
	if err != nil {
		t.Fatal(err)
	}
	plan := ix.Plan()
	return &plan
}

// TestAssembleRejectsCorruptMappings drives the load-side validation.
func TestAssembleRejectsCorruptMappings(t *testing.T) {
	e, _ := buildFixture(t, 100, 2)
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	cores := make([]*core.Index, 2)
	globals := make([][]uint32, 2)
	reload := func() {
		e2, err := Load(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		for si := 0; si < 2; si++ {
			cores[si] = e2.ShardCore(si)
			globals[si] = append([]uint32(nil), e2.shards[si].toGlobal...)
		}
	}
	reload()
	if _, err := Assemble(7, cores, globals, e.NumAllocated()); err != nil {
		t.Fatalf("faithful assemble failed: %v", err)
	}
	// Wrong router seed: sids no longer route to the shards that hold them.
	if _, err := Assemble(8, cores, globals, e.NumAllocated()); err == nil {
		t.Fatal("assemble accepted a mapping under the wrong router seed")
	}
	reload()
	globals[0][0] = globals[1][0] // duplicate global sid
	if _, err := Assemble(7, cores, globals, e.NumAllocated()); err == nil {
		t.Fatal("assemble accepted a duplicated global sid")
	}
	reload()
	globals[0][0] = uint32(e.NumAllocated() + 5) // beyond the space
	if _, err := Assemble(7, cores, globals, e.NumAllocated()); err == nil {
		t.Fatal("assemble accepted a global sid beyond the declared space")
	}
	reload()
	globals[0] = globals[0][:len(globals[0])-1] // table shorter than the core
	if _, err := Assemble(7, cores, globals, e.NumAllocated()); err == nil {
		t.Fatal("assemble accepted a short mapping table")
	}
}

// TestConcurrentShardStress is the -race workhorse: concurrent inserts,
// deletes, range queries (serial and fanned out), and snapshots, at one
// shard and at four. Correctness of results is checked afterwards; during
// the storm the assertions are only that nothing errors, deadlocks, or
// races.
func TestConcurrentShardStress(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { concurrentShardStress(t, shards) })
	}
}

func concurrentShardStress(t *testing.T, shards int) {
	e, sets := buildFixture(t, 150, shards)
	base := e.NumAllocated()
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	// Writers: each inserts its own sid range worth of fresh sets.
	var sidMu sync.Mutex
	var sids []uint32
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				s := set.New(uint64(100000+w*1000+i), uint64(100001+w*1000+i), uint64(100002+w*1000+i))
				g, err := e.Insert(s)
				if err != nil {
					errCh <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
				sidMu.Lock()
				sids = append(sids, g)
				sidMu.Unlock()
				if i%7 == 3 {
					if err := e.Delete(g); err != nil {
						errCh <- fmt.Errorf("writer %d delete: %w", w, err)
						return
					}
				}
			}
		}(w)
	}
	// Readers: queries against the original collection.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for i := 0; i < 20; i++ {
				q := sets[rng.Intn(len(sets))]
				if _, _, err := e.QueryWithOptions(q, 0.5, 1.0, core.QueryOptions{}); err != nil {
					errCh <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
				if i%5 == 0 {
					if _, _, err := e.QueryWithOptions(q, 0.3, 0.9, core.QueryOptions{Workers: 8}); err != nil {
						errCh <- fmt.Errorf("reader %d wide: %w", r, err)
						return
					}
				}
			}
		}(r)
	}
	// Snapshotter: consistent cuts mid-storm.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			var buf bytes.Buffer
			if err := e.Save(&buf); err != nil {
				errCh <- fmt.Errorf("save: %w", err)
				return
			}
			if _, err := Load(bytes.NewReader(buf.Bytes())); err != nil {
				errCh <- fmt.Errorf("load mid-storm snapshot: %w", err)
				return
			}
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	// Sids stay dense under concurrent inserts: the writers were handed
	// exactly base..base+89, and the sid space is what was handed out.
	slices.Sort(sids)
	for i, g := range sids {
		if g != uint32(base+i) {
			t.Fatalf("inserts were handed sids %v, want %d..%d", sids, base, base+89)
		}
	}
	if got := e.NumAllocated(); got != base+len(sids) || len(sids) != 90 {
		t.Fatalf("NumAllocated=%d after handing out %d sids over a build of %d", got, len(sids), base)
	}
	// Every surviving insert is findable by its own content.
	bySID := e.SetsBySID()
	live := 0
	for g := base; g < base+90; g++ {
		if bySID[g] != nil {
			live++
		}
	}
	if live == 0 {
		t.Fatal("no concurrent inserts survived")
	}
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	e2, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if e2.Len() != e.Len() {
		t.Fatalf("post-storm reload Len=%d, want %d", e2.Len(), e.Len())
	}
	// The reload holds every sid's set under the same sid.
	reloaded, want := e2.SetsBySID(), e.SetsBySID()
	if len(reloaded) != len(want) {
		t.Fatalf("reload has a sid space of %d, want %d", len(reloaded), len(want))
	}
	for g, s := range want {
		if (s == nil) != (reloaded[g] == nil) || s != nil && !s.Equal(*reloaded[g]) {
			t.Fatalf("sid %d holds a different set after Save → Load", g)
		}
	}
	var again bytes.Buffer
	if err := e2.Save(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), buf.Bytes()) {
		t.Fatal("Save → Load → Save changed the snapshot bytes")
	}
}

// TestSetsBySIDDuringInserts reads the collection while inserts land, at
// one shard and at four: a read must never index past the sid space it
// sized, and every slot it fills must hold the set inserted under that sid.
func TestSetsBySIDDuringInserts(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			e, _ := buildFixture(t, 40, shards)
			base := e.NumAllocated()
			const perWriter = 150
			var writers, readers sync.WaitGroup
			done := make(chan struct{})
			errCh := make(chan error, 8)
			for w := 0; w < 2; w++ {
				writers.Add(1)
				go func(w int) {
					defer writers.Done()
					for i := 0; i < perWriter; i++ {
						if _, err := e.Insert(set.New(uint64(500000+w*1000+i), uint64(1<<40+i))); err != nil {
							errCh <- fmt.Errorf("writer %d: %w", w, err)
							return
						}
					}
				}(w)
			}
			for r := 0; r < 2; r++ {
				readers.Add(1)
				go func() {
					defer readers.Done()
					for {
						select {
						case <-done:
							return
						default:
						}
						bySID := e.SetsBySID()
						for g, s := range bySID[base:] {
							if s != nil && s.Len() != 2 {
								errCh <- fmt.Errorf("sid %d holds a %d-element set, not an insert", base+g, s.Len())
								return
							}
						}
						_ = e.Sets()
					}
				}()
			}
			writers.Wait()
			close(done)
			readers.Wait()
			close(errCh)
			for err := range errCh {
				t.Fatal(err)
			}
			if got, want := len(e.SetsBySID()), base+2*perWriter; got != want || len(e.Sets()) != want {
				t.Fatalf("after the storm SetsBySID has %d slots and Sets %d sets, want %d", got, len(e.Sets()), want)
			}
		})
	}
}

// TestTopKAcrossShards compares sharded TopK against the monolithic
// answer.
func TestTopKAcrossShards(t *testing.T) {
	sets, err := workload.Generate(workload.Set1Params(300))
	if err != nil {
		t.Fatal(err)
	}
	mono, err := Build(sets, Options{Shards: 1, RouterSeed: 7, Core: coreOptions()})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := Build(sets, Options{Shards: 4, RouterSeed: 7, Core: coreOptions()})
	if err != nil {
		t.Fatal(err)
	}
	for _, sid := range []int{0, 17, 123} {
		m1, _, err := mono.TopK(sets[sid], 5)
		if err != nil {
			t.Fatal(err)
		}
		m2, _, err := sharded.TopK(sets[sid], 5)
		if err != nil {
			t.Fatal(err)
		}
		// TopK is one-sided approximate, and per-shard early stopping can
		// only WIDEN the candidate pool — the sharded top-k similarity
		// profile must be at least as good as the monolithic one.
		for i := range m2 {
			if i < len(m1) && m2[i].Similarity < m1[i].Similarity-1e-12 {
				t.Fatalf("sid %d rank %d: sharded %.6f worse than monolithic %.6f",
					sid, i, m2[i].Similarity, m1[i].Similarity)
			}
		}
		if len(m2) < len(m1) {
			t.Fatalf("sid %d: sharded returned %d results, monolithic %d", sid, len(m2), len(m1))
		}
	}
}

// TestEstimatesShardInvariant: the Section 5 answer-size estimate comes
// from the global distribution and must not move with the shard count,
// and it must track the true average answer size.
func TestEstimatesShardInvariant(t *testing.T) {
	sets, err := workload.Generate(workload.Set1Params(300))
	if err != nil {
		t.Fatal(err)
	}
	ranges := [][2]float64{{0.7, 1}, {0, 0.1}, {0.1, 0.3}, {0.5, 1}}
	// Estimated as built, then with every third set deleted: tombstones
	// must leave the estimates as shard-invariant as the build does.
	base := make([][]float64, 2)
	for i, shards := range []int{1, 4} {
		e, err := Build(sets, Options{Shards: shards, RouterSeed: 7, Core: coreOptions()})
		if err != nil {
			t.Fatal(err)
		}
		for pass := range base {
			if pass == 1 {
				for sid := 0; sid < len(sets); sid += 3 {
					if err := e.Delete(uint32(sid)); err != nil {
						t.Fatal(err)
					}
				}
			}
			live := e.Sets()
			for ri, r := range ranges {
				est, err := e.EstimateAnswerSize(r[0], r[1])
				if err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					base[pass] = append(base[pass], est)
				} else if diff := est - base[pass][ri]; diff > 1e-9 || diff < -1e-9 {
					t.Fatalf("pass %d range %v: estimate moved with shard count: %g vs %g", pass, r, est, base[pass][ri])
				}
				// The true average answer size over a sample of live
				// queries. The estimate is distribution-based; demand the
				// right order of magnitude (factor 3 + small absolute slack).
				truth := 0.0
				const probes = 40
				for q := 0; q < probes; q++ {
					for _, s := range live {
						if sim := live[q*7%len(live)].Jaccard(s); sim >= r[0] && sim <= r[1] {
							truth++
						}
					}
				}
				truth /= probes
				if est > 3*truth+20 || truth > 3*est+20 {
					t.Errorf("shards=%d pass %d range %v: estimate %.1f vs measured %.1f", shards, pass, r, est, truth)
				}
			}
		}
	}
}

// TestQueryWorkerBudgetNeverOversubscribes pins the scatter stage's worker
// arithmetic: the shares handed to the shards always sum to exactly
// max(requested, one per shard) with every shard getting at least one
// worker and no share more than one above another (proportional split).
// This is the engine's no-oversubscription contract — a Workers=W query
// never runs more than max(W, shards) core workers at once.
func TestQueryWorkerBudgetNeverOversubscribes(t *testing.T) {
	for _, pool := range []int{1, 2, 3, 5, 8, 16} {
		for _, n := range []int{1, 2, 3, 8} {
			shares := core.SplitPool(core.ResolveWorkers(pool), n)
			if len(shares) != n {
				t.Fatalf("SplitPool(%d, %d) returned %d shares", pool, n, len(shares))
			}
			want := pool
			if want < n {
				want = n
			}
			sum, lo, hi := 0, shares[0], shares[0]
			for _, s := range shares {
				sum += s
				if s < 1 {
					t.Fatalf("SplitPool(%d, %d): share %d below the one-worker floor", pool, n, s)
				}
				if s < lo {
					lo = s
				}
				if s > hi {
					hi = s
				}
			}
			if sum != want {
				t.Fatalf("SplitPool(%d, %d) shares sum to %d, want %d (oversubscription)", pool, n, sum, want)
			}
			if hi-lo > 1 {
				t.Fatalf("SplitPool(%d, %d) shares %v are not proportional", pool, n, shares)
			}
		}
	}
	// Worker width is pure scheduling: a starved pool and a saturated pool
	// must answer identically.
	e, sets := buildFixture(t, 200, 3)
	qs, err := workload.Queries(len(sets), workload.QueryParams{Count: 8, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		narrow, _, err := e.QueryWithOptions(sets[q.SID], q.Lo, q.Hi, core.QueryOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		wide, _, err := e.QueryWithOptions(sets[q.SID], q.Lo, q.Hi, core.QueryOptions{Workers: 16})
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(matchKeys(narrow)) != fmt.Sprint(matchKeys(wide)) {
			t.Fatalf("query %d: results vary with worker width", i)
		}
	}
}
