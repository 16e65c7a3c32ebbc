package ssr

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// durableShardedBuildOpts is durableBuildOpts plus sharding.
func durableShardedBuildOpts(shards int) Options {
	o := durableBuildOpts()
	o.Shards = shards
	return o
}

// TestDurableShardedLifecycle mirrors TestDurableLifecycle on a 3-shard
// index: the durable index tracks an in-memory twin bit-for-bit, survives
// close/reopen, and the directory uses the sharded layout (MANIFEST plus
// one subdirectory per shard).
func TestDurableShardedLifecycle(t *testing.T) {
	dir := t.TempDir()
	ops := workloadOps(30)

	ref, err := Build(bookstore(), durableShardedBuildOpts(3))
	if err != nil {
		t.Fatal(err)
	}
	applyOps(t, ref, ops)

	ix, err := CreateDurable(dir, bookstore(), durableShardedBuildOpts(3), DurableOptions{Sync: SyncNever})
	if err != nil {
		t.Fatalf("CreateDurable: %v", err)
	}
	applyOps(t, ix, ops)
	assertSameIndex(t, ix, ref)

	if _, err := os.Stat(filepath.Join(dir, "MANIFEST")); err != nil {
		t.Fatalf("sharded bootstrap wrote no MANIFEST: %v", err)
	}
	for si := 0; si < 3; si++ {
		sub := filepath.Join(dir, fmt.Sprintf("shard-%03d", si))
		entries, err := os.ReadDir(sub)
		if err != nil {
			t.Fatalf("shard dir %s: %v", sub, err)
		}
		var hasCkpt bool
		for _, e := range entries {
			if strings.HasPrefix(e.Name(), "checkpoint-") {
				hasCkpt = true
			}
		}
		if !hasCkpt {
			t.Fatalf("shard dir %s holds no checkpoint", sub)
		}
	}

	if err := ix.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := ix.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := ix.Add("post-close"); err == nil {
		t.Fatal("Add after Close succeeded")
	}
	if err := ix.Remove(0); err == nil {
		t.Fatal("Remove after Close succeeded")
	}
	if _, _, err := ix.Query([]string{"dune"}, 0.5, 1.0); err != nil {
		t.Fatalf("Query after Close: %v", err)
	}

	re, err := OpenDurable(dir, DurableOptions{Sync: SyncNever})
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	defer re.Close()
	if re.Shards() != 3 {
		t.Fatalf("reopened with %d shards, want 3", re.Shards())
	}
	assertSameIndex(t, re, ref)
	if _, err := ref.Add("after", "reopen"); err != nil {
		t.Fatal(err)
	}
	if _, err := re.Add("after", "reopen"); err != nil {
		t.Fatal(err)
	}
	assertSameIndex(t, re, ref)
}

// TestDurableShardedReopenWithoutClose simulates a whole-process crash (no
// final checkpoint on any shard): every shard's tail log alone must carry
// its acknowledged mutations.
func TestDurableShardedReopenWithoutClose(t *testing.T) {
	dir := t.TempDir()
	ops := workloadOps(20)
	ref, err := Build(bookstore(), durableShardedBuildOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	applyOps(t, ref, ops)

	ix, err := CreateDurable(dir, bookstore(), durableShardedBuildOpts(4), DurableOptions{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	applyOps(t, ix, ops)
	// No Close: drop the index on the floor, as a crash would.
	_ = ix

	re, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatalf("OpenDurable after simulated crash: %v", err)
	}
	defer re.Close()
	assertSameIndex(t, re, ref)
}

// liveOpSIDs simulates which workload sids are live after every op has
// been applied except the target shard's ops at per-shard rank >= j. Both
// the insert and the delete of a sid route to the same shard (routing is
// by sid), so per-shard prefixes are internally consistent.
func liveOpSIDs(ops []crashOp, owner []int, target, j int) map[int]bool {
	live := make(map[int]bool)
	rank := 0
	for i, op := range ops {
		applied := true
		if owner[i] == target {
			applied = rank < j
			rank++
		}
		if !applied {
			continue
		}
		if op.elements != nil {
			live[op.sid] = true
		} else {
			delete(live, op.sid)
		}
	}
	return live
}

// TestDurableShardedCrashPrefixRecovery truncates ONE shard's tail log at
// every byte boundary and recovers: the result must always be "every
// other shard complete, the damaged shard at some prefix of its own log",
// the prefix must grow monotonically with the truncation point, and no
// delete inside the recovered prefix may resurrect — neither in storage
// nor in the filter tables.
func TestDurableShardedCrashPrefixRecovery(t *testing.T) {
	const shards = 3
	dir := t.TempDir()
	ops := crashWorkload()

	ix, err := CreateDurable(dir, bookstore(), durableShardedBuildOpts(shards),
		DurableOptions{Sync: SyncNever, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	applyCrashOps(t, ix, ops)
	owner := make([]int, len(ops))
	for i, op := range ops {
		owner[i] = ix.Internal().ShardOf(uint32(op.sid))
	}
	// Simulated crash: release every shard's log without the shutdown
	// checkpoint, so all mutations live only in the tail logs.
	for _, sh := range ix.dur.shards {
		if err := sh.log.Close(); err != nil {
			t.Fatal(err)
		}
	}
	ix.dur.closed.Store(true)

	// Damage the shard that owns the most operations (and at least one
	// delete, so resurrection is actually exercised).
	perShard := make([]int, shards)
	hasDelete := make([]bool, shards)
	for i := range ops {
		perShard[owner[i]]++
		if ops[i].elements == nil {
			hasDelete[owner[i]] = true
		}
	}
	target := 0
	for si := 1; si < shards; si++ {
		if hasDelete[si] && (!hasDelete[target] || perShard[si] > perShard[target]) {
			target = si
		}
	}
	if !hasDelete[target] {
		t.Fatalf("no shard owns a delete (distribution %v); grow the workload", perShard)
	}
	targetOps := perShard[target]

	shardDir := filepath.Join(dir, fmt.Sprintf("shard-%03d", target))
	entries, err := os.ReadDir(shardDir)
	if err != nil {
		t.Fatal(err)
	}
	walFile := ""
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal-") {
			if walFile != "" {
				t.Fatalf("expected one wal segment in %s, found %q and %q", shardDir, walFile, e.Name())
			}
			walFile = e.Name()
		}
	}
	if walFile == "" {
		t.Fatalf("no wal segment in %s", shardDir)
	}
	logData, err := os.ReadFile(filepath.Join(shardDir, walFile))
	if err != nil {
		t.Fatal(err)
	}

	// checkTrial returns every prefix length of the target shard's log
	// whose resulting state matches the recovered liveness. Distinct
	// prefixes can be observationally identical (a truncated insert+delete
	// pair of the same sid leaves no trace), so the match is a set.
	checkTrial := func(label string, re *Index) []int {
		t.Helper()
		bySID := re.Internal().SetsBySID()
		liveGot := make(map[int]bool)
		for sid, s := range bySID {
			if s == nil {
				continue
			}
			if sid < 65 {
				continue // bookstore base set, always live
			}
			liveGot[sid] = true
		}
		base := 0
		for sid := 0; sid < 65 && sid < len(bySID); sid++ {
			if bySID[sid] != nil {
				base++
			}
		}
		if base != 65 {
			t.Fatalf("%s: only %d of 65 base sets recovered", label, base)
		}
		var cands []int
		for cand := 0; cand <= targetOps; cand++ {
			want := liveOpSIDs(ops, owner, target, cand)
			if len(want) != len(liveGot) {
				continue
			}
			same := true
			for sid := range want {
				if !liveGot[sid] {
					same = false
					break
				}
			}
			if same {
				cands = append(cands, cand)
			}
		}
		if len(cands) == 0 {
			t.Fatalf("%s: recovered liveness %v matches no prefix of shard %d's log", label, liveGot, target)
		}
		// Non-resurrection: deletes inside the longest matching prefix
		// must not answer queries for their exact elements. (If the true
		// prefix is shorter, those sids were never inserted and the probe
		// must still come back empty.)
		j := cands[len(cands)-1]
		rank := 0
		for i, op := range ops {
			inPrefix := owner[i] != target || rank < j
			if owner[i] == target {
				rank++
			}
			if op.elements != nil || !inPrefix {
				continue
			}
			elems := ops[opIndexOfInsert(ops, op.sid)].elements
			matches, _, err := re.Query(elems, 0.999, 1.0)
			if err != nil {
				t.Fatalf("%s: probe query: %v", label, err)
			}
			for _, m := range matches {
				if m.SID == op.sid {
					t.Fatalf("%s: deleted sid %d resurrected (prefix %d)", label, op.sid, j)
				}
			}
		}
		return cands
	}

	scratch := t.TempDir()
	prevJ := 0
	for cut := 0; cut <= len(logData); cut++ {
		trial := filepath.Join(scratch, fmt.Sprintf("cut-%d", cut))
		copyDir(t, dir, trial)
		if err := os.WriteFile(filepath.Join(trial, fmt.Sprintf("shard-%03d", target), walFile), logData[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := OpenDurable(trial, DurableOptions{Sync: SyncNever})
		if err != nil {
			t.Fatalf("cut %d: OpenDurable: %v", cut, err)
		}
		cands := checkTrial(fmt.Sprintf("cut %d", cut), re)
		// Monotone: some matching prefix must be at least as long as the
		// shortest prefix the previous (shorter) truncation guaranteed.
		j := -1
		for _, c := range cands {
			if c >= prevJ {
				j = c
				break
			}
		}
		if j < 0 {
			t.Fatalf("cut %d: recovered prefix shrank below %d (matches %v) as more bytes survived", cut, prevJ, cands)
		}
		prevJ = j
		if err := re.Close(); err != nil {
			t.Fatalf("cut %d: Close: %v", cut, err)
		}
		if err := os.RemoveAll(trial); err != nil {
			t.Fatal(err)
		}
	}
	if prevJ != targetOps {
		t.Fatalf("full log recovered prefix %d of %d shard-%d operations", prevJ, targetOps, target)
	}
}

// TestDurableShardedSnapshotBitFlip flips a byte in one shard's tail log:
// recovery must degrade to a prefix, never fail or corrupt other shards.
func TestDurableShardedBitFlips(t *testing.T) {
	const shards = 2
	dir := t.TempDir()
	ops := crashWorkload()
	ix, err := CreateDurable(dir, bookstore(), durableShardedBuildOpts(shards),
		DurableOptions{Sync: SyncNever, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	applyCrashOps(t, ix, ops)
	for _, sh := range ix.dur.shards {
		if err := sh.log.Close(); err != nil {
			t.Fatal(err)
		}
	}
	ix.dur.closed.Store(true)

	shardDir := filepath.Join(dir, "shard-000")
	entries, err := os.ReadDir(shardDir)
	if err != nil {
		t.Fatal(err)
	}
	walFile := ""
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal-") {
			walFile = e.Name()
		}
	}
	if walFile == "" {
		t.Fatal("no wal segment in shard-000")
	}
	logData, err := os.ReadFile(filepath.Join(shardDir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	scratch := t.TempDir()
	// Every 7th offset keeps the sweep fast while still hitting every
	// frame section (headers, lengths, payloads, checksums).
	for off := 0; off < len(logData); off += 7 {
		trial := filepath.Join(scratch, "flip")
		copyDir(t, dir, trial)
		corrupt := bytes.Clone(logData)
		corrupt[off] ^= 0x40
		if err := os.WriteFile(filepath.Join(trial, "shard-000", walFile), corrupt, 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := OpenDurable(trial, DurableOptions{Sync: SyncNever})
		if err != nil {
			t.Fatalf("flip at %d: OpenDurable: %v", off, err)
		}
		// The index must be functional whatever survived.
		if _, _, err := re.Query([]string{"dune"}, 0.2, 1.0); err != nil {
			t.Fatalf("flip at %d: Query: %v", off, err)
		}
		if err := re.Close(); err != nil {
			t.Fatalf("flip at %d: Close: %v", off, err)
		}
		if err := os.RemoveAll(trial); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDurableShardedPrealloc: with WAL preallocation enabled, each shard's
// live segment carries zero padding on disk; a copy taken mid-flight (the
// crash image, padding included) recovers to exactly the acknowledged
// state.
func TestDurableShardedPrealloc(t *testing.T) {
	dir := t.TempDir()
	ops := workloadOps(25)
	ref, err := Build(bookstore(), durableShardedBuildOpts(3))
	if err != nil {
		t.Fatal(err)
	}
	applyOps(t, ref, ops)

	const chunk = 1 << 16
	ix, err := CreateDurable(dir, bookstore(), durableShardedBuildOpts(3),
		DurableOptions{Sync: SyncAlways, PreallocBytes: chunk})
	if err != nil {
		t.Fatal(err)
	}
	applyOps(t, ix, ops)

	// Snapshot the directory while the index is live: every shard's open
	// segment should be padded out to the preallocation chunk.
	crash := t.TempDir()
	copyDir(t, dir, crash)
	padded := 0
	for si := 0; si < 3; si++ {
		sub := filepath.Join(crash, fmt.Sprintf("shard-%03d", si))
		entries, err := os.ReadDir(sub)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if !strings.HasPrefix(e.Name(), "wal-") {
				continue
			}
			fi, err := e.Info()
			if err != nil {
				t.Fatal(err)
			}
			if fi.Size()%chunk == 0 {
				padded++
			}
		}
	}
	if padded == 0 {
		t.Fatal("no shard segment shows preallocation padding")
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenDurable(crash, DurableOptions{Sync: SyncNever})
	if err != nil {
		t.Fatalf("OpenDurable on padded crash image: %v", err)
	}
	defer re.Close()
	assertSameIndex(t, re, ref)

	// The cleanly closed original must also reopen identically: Close trims
	// the padding, so both images describe the same logical log.
	re2, err := OpenDurable(dir, DurableOptions{Sync: SyncNever})
	if err != nil {
		t.Fatalf("OpenDurable on closed dir: %v", err)
	}
	defer re2.Close()
	assertSameIndex(t, re2, ref)
}

// TestShardedCheckpointBesideWritesNoDeadlock checkpoints a 4-shard
// durable index in a loop beside adds, removes and queries. A checkpoint
// holds a shard's lane while it snapshots the shard and captures the
// collection's names; the writers take the lanes, the collection lock and
// the engine's locks in their own order. The test keeps its own deadline,
// so a lock-order cycle among them fails in seconds and names the stuck
// operations.
func TestShardedCheckpointBesideWritesNoDeadlock(t *testing.T) {
	ix, err := CreateDurable(t.TempDir(), bookstore(), durableShardedBuildOpts(4), DurableOptions{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	base := ix.Len()

	const writers, ops = 4, 60
	var current [writers + 1]atomic.Pointer[string] // the writers, then the checkpointer
	done := make(chan error, writers+1)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				op := fmt.Sprintf("writer %d: Add #%d", w, i)
				current[w].Store(&op)
				sid, err := ix.Add(fmt.Sprintf("ckpt-%d-%d", w, i), "dune")
				if err == nil && i%3 == 0 {
					op = fmt.Sprintf("writer %d: Remove(%d)", w, sid)
					current[w].Store(&op)
					err = ix.Remove(sid)
				}
				if err == nil {
					op = fmt.Sprintf("writer %d: Query #%d", w, i)
					current[w].Store(&op)
					_, _, err = ix.Query([]string{"dune", "foundation"}, 0.2, 1.0)
				}
				if err != nil {
					done <- fmt.Errorf("%s: %w", op, err)
					return
				}
			}
			current[w].Store(nil)
			done <- nil
		}(w)
	}
	writersDone := make(chan struct{})
	go func() { wg.Wait(); close(writersDone) }()
	go func() {
		for n := 0; ; n++ {
			select {
			case <-writersDone:
				current[writers].Store(nil)
				done <- nil
				return
			default:
			}
			op := fmt.Sprintf("Checkpoint #%d", n)
			current[writers].Store(&op)
			if err := ix.Checkpoint(); err != nil {
				done <- fmt.Errorf("%s: %w", op, err)
				return
			}
		}
	}()

	deadline := time.After(20 * time.Second)
	for left := writers + 1; left > 0; left-- {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-deadline:
			var stuck []string
			for i := range current {
				if op := current[i].Load(); op != nil {
					stuck = append(stuck, *op)
				}
			}
			t.Fatalf("still blocked after 20 s (lock-order deadlock?): %s", strings.Join(stuck, "; "))
		}
	}
	if got, want := ix.Len(), base+writers*(ops-ops/3); got != want {
		t.Fatalf("Len = %d after the writers, want %d", got, want)
	}
	// Closed here, not deferred: after a deadlock Close would block on
	// the stuck lane.
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
}
