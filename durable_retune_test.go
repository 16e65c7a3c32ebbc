package ssr

import (
	"bytes"
	"testing"
)

// TestDurableRetunePersistsAcrossReopen: a retuned durable index
// checkpoints its new plan and recovers it bit-identically — the
// reopened index writes byte-identical snapshots and reports the
// retuned plan generation.
func TestDurableRetunePersistsAcrossReopen(t *testing.T) {
	for _, shards := range []int{1, 3} {
		dir := t.TempDir()
		ix, err := CreateDurable(dir, bookstore(), durableShardedBuildOpts(shards),
			DurableOptions{Sync: SyncNever, CheckpointBytes: -1})
		if err != nil {
			t.Fatalf("shards=%d CreateDurable: %v", shards, err)
		}
		applyOps(t, ix, workloadOps(25))
		if _, err := ix.inner.Retune(); err != nil {
			t.Fatalf("shards=%d retune: %v", shards, err)
		}
		if err := ix.Checkpoint(); err != nil {
			t.Fatalf("shards=%d checkpoint: %v", shards, err)
		}
		want := saveBytes(t, ix)
		if err := ix.Close(); err != nil {
			t.Fatalf("shards=%d Close: %v", shards, err)
		}

		re, err := OpenDurable(dir, DurableOptions{Sync: SyncNever})
		if err != nil {
			t.Fatalf("shards=%d OpenDurable: %v", shards, err)
		}
		defer re.Close()
		if got := re.inner.PlanGeneration(); got != 1 {
			t.Fatalf("shards=%d recovered plan generation %d, want 1", shards, got)
		}
		if !bytes.Equal(saveBytes(t, re), want) {
			t.Fatalf("shards=%d: recovered snapshot differs from pre-close snapshot", shards)
		}
		assertSameIndex(t, re, ix)
	}
}

// TestDurableRetuneCrashSemantics pins the commit point of a retune in
// the durable story: the checkpoint. A crash BEFORE the post-retune
// checkpoint recovers the old plan (generation 0, byte-identical to the
// pre-retune state); a crash AFTER it recovers the new plan
// (byte-identical to the retuned state). Both sides also keep the
// acknowledged log tail.
func TestDurableRetuneCrashSemantics(t *testing.T) {
	for _, shards := range []int{1, 3} {
		dir := t.TempDir()
		ix, err := CreateDurable(dir, bookstore(), durableShardedBuildOpts(shards),
			DurableOptions{Sync: SyncAlways, CheckpointBytes: -1})
		if err != nil {
			t.Fatalf("shards=%d CreateDurable: %v", shards, err)
		}
		applyOps(t, ix, workloadOps(25))
		saveOld := saveBytes(t, ix)

		// A retune mutates only memory: the on-disk state right now IS the
		// crash-before-checkpoint state. Snapshot the directory.
		preDir := t.TempDir()
		copyDir(t, dir, preDir)

		if _, err := ix.inner.Retune(); err != nil {
			t.Fatalf("shards=%d retune: %v", shards, err)
		}
		saveNew := saveBytes(t, ix)
		if bytes.Equal(saveOld, saveNew) {
			t.Fatalf("shards=%d: retune left the snapshot header unchanged", shards)
		}

		// Checkpoint commits the retune; crash without Close.
		if err := ix.Checkpoint(); err != nil {
			t.Fatalf("shards=%d checkpoint: %v", shards, err)
		}
		postDir := t.TempDir()
		copyDir(t, dir, postDir)

		pre, err := OpenDurable(preDir, DurableOptions{})
		if err != nil {
			t.Fatalf("shards=%d OpenDurable(pre-crash): %v", shards, err)
		}
		defer pre.Close()
		if got := pre.inner.PlanGeneration(); got != 0 {
			t.Fatalf("shards=%d: crash before checkpoint recovered generation %d, want 0", shards, got)
		}
		if !bytes.Equal(saveBytes(t, pre), saveOld) {
			t.Fatalf("shards=%d: crash before checkpoint did not recover the old plan byte-identically", shards)
		}

		post, err := OpenDurable(postDir, DurableOptions{})
		if err != nil {
			t.Fatalf("shards=%d OpenDurable(post-crash): %v", shards, err)
		}
		defer post.Close()
		if got := post.inner.PlanGeneration(); got != 1 {
			t.Fatalf("shards=%d: crash after checkpoint recovered generation %d, want 1", shards, got)
		}
		if !bytes.Equal(saveBytes(t, post), saveNew) {
			t.Fatalf("shards=%d: crash after checkpoint did not recover the new plan byte-identically", shards)
		}
		assertSameIndex(t, post, ix)
	}
}

// TestDurableRetuneMixedGenerations crashes between a retune and the
// LAST shard's checkpoint: only shard 0 has checkpointed the new plan.
// Recovery must normalize every shard onto the newest generation —
// plan-identical shards, generation 1, and state byte-identical to the
// fully-checkpointed retuned index.
func TestDurableRetuneMixedGenerations(t *testing.T) {
	const shards = 3
	dir := t.TempDir()
	ix, err := CreateDurable(dir, bookstore(), durableShardedBuildOpts(shards),
		DurableOptions{Sync: SyncAlways, CheckpointBytes: -1})
	if err != nil {
		t.Fatalf("CreateDurable: %v", err)
	}
	applyOps(t, ix, workloadOps(25))
	if _, err := ix.inner.Retune(); err != nil {
		t.Fatalf("retune: %v", err)
	}
	want := saveBytes(t, ix)

	// Checkpoint ONE shard's lane only, then crash: the directory now
	// mixes a generation-1 checkpoint with generation-0 siblings.
	sh := ix.dur.shards[0]
	sh.mu.Lock()
	err = sh.log.Checkpoint()
	sh.mu.Unlock()
	if err != nil {
		t.Fatalf("checkpointing shard 0: %v", err)
	}
	mixedDir := t.TempDir()
	copyDir(t, dir, mixedDir)

	re, err := OpenDurable(mixedDir, DurableOptions{})
	if err != nil {
		t.Fatalf("OpenDurable(mixed): %v", err)
	}
	defer re.Close()
	if got := re.inner.PlanGeneration(); got != 1 {
		t.Fatalf("mixed-generation recovery reports generation %d, want 1", got)
	}
	if !bytes.Equal(saveBytes(t, re), want) {
		t.Fatal("mixed-generation recovery did not normalize onto the retuned plan byte-identically")
	}
	assertSameIndex(t, re, ix)
}
