package ssr

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// crashOp is one step of the crash-harness workload, with enough metadata
// to check non-resurrection afterwards.
type crashOp struct {
	elements []string // insert when non-nil
	sid      int      // target for delete; assigned sid for insert
}

// crashWorkload interleaves inserts and deletes of the inserted sets so
// that several prefixes of the sequence contain completed deletes.
func crashWorkload() []crashOp {
	var ops []crashOp
	next := 65 // sids after bookstore()
	for i := 0; i < 18; i++ {
		if i%4 == 3 {
			// Delete the insert from two steps ago.
			ops = append(ops, crashOp{sid: next - 2})
			continue
		}
		ops = append(ops, crashOp{
			elements: []string{fmt.Sprintf("crash-%d-a", i), fmt.Sprintf("crash-%d-b", i), "dune"},
			sid:      next,
		})
		next++
	}
	return ops
}

// applyCrashOps drives ops through ix.
func applyCrashOps(t *testing.T, ix *Index, ops []crashOp) {
	t.Helper()
	for i, op := range ops {
		if op.elements != nil {
			sid, err := ix.Add(op.elements...)
			if err != nil {
				t.Fatalf("op %d: Add: %v", i, err)
			}
			if sid != op.sid {
				t.Fatalf("op %d: sid %d, want %d", i, sid, op.sid)
			}
		} else if err := ix.Remove(op.sid); err != nil {
			t.Fatalf("op %d: Remove(%d): %v", i, op.sid, err)
		}
	}
}

// copyDir clones the recorded durability directory for one corruption
// trial.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			copyDir(t, filepath.Join(src, e.Name()), filepath.Join(dst, e.Name()))
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// recordCrashScenario builds a durable index, applies the workload, and
// "crashes" (closes the log with no final checkpoint). It returns the
// directory, the single live wal path (relative to the directory), and
// the per-prefix reference snapshots: prefixes[k] is the Save output of
// an index that saw exactly ops[:k].
func recordCrashScenario(t *testing.T, ops []crashOp) (dir, walFile string, prefixes [][]byte) {
	t.Helper()
	dir = t.TempDir()
	ix, err := CreateDurable(dir, bookstore(), durableBuildOpts(),
		DurableOptions{Sync: SyncNever, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	applyCrashOps(t, ix, ops)
	// Simulated crash: release the log without the shutdown checkpoint, so
	// every mutation lives only in the tail log.
	if err := ix.dur.shards[0].log.Close(); err != nil {
		t.Fatal(err)
	}
	ix.dur.closed.Store(true)

	entries, err := os.ReadDir(filepath.Join(dir, "shard-000"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal-") {
			if walFile != "" {
				t.Fatalf("expected one wal segment, found %q and %q", walFile, e.Name())
			}
			walFile = filepath.Join("shard-000", e.Name())
		}
	}
	if walFile == "" {
		t.Fatal("no wal segment recorded")
	}

	// Reference snapshots for every prefix of the operation sequence.
	for k := 0; k <= len(ops); k++ {
		ref, err := Build(bookstore(), durableBuildOpts())
		if err != nil {
			t.Fatal(err)
		}
		applyCrashOps(t, ref, ops[:k])
		prefixes = append(prefixes, saveBytes(t, ref))
	}
	return dir, walFile, prefixes
}

// checkRecovered asserts the recovered index equals some prefix of the
// operation sequence (bit-identical snapshot) and that no delete completed
// within that prefix has been resurrected — neither in storage (the
// snapshot equality covers it) nor in the filter indices (probed with the
// deleted set's exact elements, which deterministically hash to its
// buckets).
func checkRecovered(t *testing.T, label string, re *Index, ops []crashOp, prefixes [][]byte) {
	t.Helper()
	snap := saveBytes(t, re)
	k := -1
	for i, want := range prefixes {
		if bytes.Equal(snap, want) {
			k = i
			break
		}
	}
	if k < 0 {
		t.Fatalf("%s: recovered state matches no prefix of the operation sequence", label)
	}
	for i := 0; i < k; i++ {
		if ops[i].elements != nil {
			continue
		}
		deleted := ops[i].sid
		elems := ops[opIndexOfInsert(ops, deleted)].elements
		matches, _, err := re.Query(elems, 0.999, 1.0)
		if err != nil {
			t.Fatalf("%s: probe query: %v", label, err)
		}
		for _, m := range matches {
			if m.SID == deleted {
				t.Fatalf("%s: deleted sid %d resurrected (prefix %d)", label, deleted, k)
			}
		}
	}
}

// opIndexOfInsert finds the op that inserted sid.
func opIndexOfInsert(ops []crashOp, sid int) int {
	for i, op := range ops {
		if op.elements != nil && op.sid == sid {
			return i
		}
	}
	panic("unknown sid")
}

// TestCrashInjectionTruncation recovers from every truncation point of the
// recorded log: no panics, and every outcome is some prefix of the
// operation sequence with no resurrected deletes.
func TestCrashInjectionTruncation(t *testing.T) {
	ops := crashWorkload()
	dir, walFile, prefixes := recordCrashScenario(t, ops)
	logData, err := os.ReadFile(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	scratch := t.TempDir()
	for cut := 0; cut <= len(logData); cut++ {
		trial := filepath.Join(scratch, fmt.Sprintf("cut-%d", cut))
		copyDir(t, dir, trial)
		if err := os.WriteFile(filepath.Join(trial, walFile), logData[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := OpenDurable(trial, DurableOptions{Sync: SyncNever})
		if err != nil {
			t.Fatalf("cut %d: OpenDurable: %v", cut, err)
		}
		checkRecovered(t, fmt.Sprintf("cut %d", cut), re, ops, prefixes)
		if err := re.Close(); err != nil {
			t.Fatalf("cut %d: Close: %v", cut, err)
		}
		if err := os.RemoveAll(trial); err != nil {
			t.Fatal(err)
		}
	}
	// Anchor: the untouched log recovers the full sequence.
	re, err := OpenDurable(dir, DurableOptions{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if !bytes.Equal(saveBytes(t, re), prefixes[len(ops)]) {
		t.Fatal("full log did not recover the complete sequence")
	}
}

// TestCrashInjectionBitFlips recovers from a single flipped byte at every
// offset of the recorded log.
func TestCrashInjectionBitFlips(t *testing.T) {
	ops := crashWorkload()
	dir, walFile, prefixes := recordCrashScenario(t, ops)
	logData, err := os.ReadFile(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	scratch := t.TempDir()
	for off := 0; off < len(logData); off++ {
		trial := filepath.Join(scratch, fmt.Sprintf("flip-%d", off))
		copyDir(t, dir, trial)
		corrupt := bytes.Clone(logData)
		corrupt[off] ^= 0x40
		if err := os.WriteFile(filepath.Join(trial, walFile), corrupt, 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := OpenDurable(trial, DurableOptions{Sync: SyncNever})
		if err != nil {
			t.Fatalf("flip at %d: OpenDurable: %v", off, err)
		}
		checkRecovered(t, fmt.Sprintf("flip %d", off), re, ops, prefixes)
		if err := re.Close(); err != nil {
			t.Fatalf("flip at %d: Close: %v", off, err)
		}
		if err := os.RemoveAll(trial); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCrashInjectionCheckpointCorruption: with only one checkpoint
// generation and a damaged checkpoint file, OpenDurable must fail with a
// clean error (never a panic, never silently empty state). Offsets are
// sampled — the recovery package's own tests cover every offset of the
// seal exhaustively.
func TestCrashInjectionCheckpointCorruption(t *testing.T) {
	ops := crashWorkload()
	dir, _, _ := recordCrashScenario(t, ops)
	var ckptFile string
	entries, err := os.ReadDir(filepath.Join(dir, "shard-000"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "checkpoint-") {
			ckptFile = filepath.Join("shard-000", e.Name())
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, ckptFile))
	if err != nil {
		t.Fatal(err)
	}
	scratch := t.TempDir()
	for off := 0; off < len(data); off += 13 {
		trial := filepath.Join(scratch, fmt.Sprintf("ckpt-%d", off))
		copyDir(t, dir, trial)
		corrupt := bytes.Clone(data)
		corrupt[off] ^= 0x01
		if err := os.WriteFile(filepath.Join(trial, ckptFile), corrupt, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenDurable(trial, DurableOptions{}); err == nil {
			t.Fatalf("flip at %d: corrupt checkpoint opened successfully", off)
		}
		if err := os.RemoveAll(trial); err != nil {
			t.Fatal(err)
		}
	}
}
