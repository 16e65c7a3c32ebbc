package ssr

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// durableBuildOpts keeps durable tests fast and deterministic.
func durableBuildOpts() Options {
	return Options{Budget: 24, MinHashes: 48, Seed: 3}
}

// mutation is one step of a recorded workload, replayable against any
// index.
type mutation struct {
	insert []string // nil means delete
	delete int
}

// workloadOps is a mixed insert/delete sequence over the bookstore
// collection's element vocabulary.
func workloadOps(n int) []mutation {
	var ops []mutation
	next := 65 // bookstore() seeds 65 sets
	for i := 0; i < n; i++ {
		switch {
		case i%5 == 3 && next > 66:
			ops = append(ops, mutation{insert: nil, delete: next - 2})
		default:
			ops = append(ops, mutation{insert: []string{
				fmt.Sprintf("wal-%d-a", i), fmt.Sprintf("wal-%d-b", i), "dune",
			}})
			next++
		}
	}
	return ops
}

// applyOps drives the mutations through the public API.
func applyOps(t *testing.T, ix *Index, ops []mutation) {
	t.Helper()
	for i, op := range ops {
		if op.insert != nil {
			if _, err := ix.Add(op.insert...); err != nil {
				t.Fatalf("op %d: Add: %v", i, err)
			}
		} else {
			if err := ix.Remove(op.delete); err != nil {
				t.Fatalf("op %d: Remove(%d): %v", i, op.delete, err)
			}
		}
	}
}

// saveBytes snapshots an index to memory.
func saveBytes(t *testing.T, ix *Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	return buf.Bytes()
}

// assertSameIndex checks that two indices hold identical state: identical
// snapshots (bit-identical, the acceptance criterion) and identical query
// results.
func assertSameIndex(t *testing.T, got, want *Index) {
	t.Helper()
	if !bytes.Equal(saveBytes(t, got), saveBytes(t, want)) {
		t.Fatal("snapshots differ")
	}
	queries := [][]string{
		{"dune", "foundation", "hyperion", "neuromancer"},
		{"wal-0-a", "wal-0-b", "dune"},
		{"cookbook", "gardening", "carpentry"},
	}
	for _, q := range queries {
		a, _, err := want.Query(q, 0.2, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := got.Query(q, 0.2, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("query %v: %+v vs %+v", q, b, a)
		}
	}
}

func TestDurableLifecycle(t *testing.T) {
	dir := t.TempDir()
	ops := workloadOps(30)

	// Reference: pure in-memory index over the same operation sequence.
	ref, err := Build(bookstore(), durableBuildOpts())
	if err != nil {
		t.Fatal(err)
	}
	applyOps(t, ref, ops)

	// Durable twin.
	ix, err := CreateDurable(dir, bookstore(), durableBuildOpts(), DurableOptions{Sync: SyncNever})
	if err != nil {
		t.Fatalf("CreateDurable: %v", err)
	}
	applyOps(t, ix, ops)
	assertSameIndex(t, ix, ref)
	if err := ix.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := ix.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	// Mutations after close fail; queries keep working.
	if _, err := ix.Add("post-close"); err == nil {
		t.Fatal("Add after Close succeeded")
	}
	if err := ix.Remove(0); err == nil {
		t.Fatal("Remove after Close succeeded")
	}
	if _, _, err := ix.Query([]string{"dune"}, 0.5, 1.0); err != nil {
		t.Fatalf("Query after Close: %v", err)
	}

	// Reopen: state must equal the reference exactly.
	re, err := OpenDurable(dir, DurableOptions{Sync: SyncNever})
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	defer re.Close()
	assertSameIndex(t, re, ref)
	// And it accepts further mutations mirroring the reference.
	if _, err := ref.Add("after", "reopen"); err != nil {
		t.Fatal(err)
	}
	if _, err := re.Add("after", "reopen"); err != nil {
		t.Fatal(err)
	}
	assertSameIndex(t, re, ref)
}

// TestDurableReopenWithoutClose simulates a crash (no final checkpoint):
// the tail log alone must carry every acknowledged mutation.
func TestDurableReopenWithoutClose(t *testing.T) {
	dir := t.TempDir()
	ops := workloadOps(20)
	ref, err := Build(bookstore(), durableBuildOpts())
	if err != nil {
		t.Fatal(err)
	}
	applyOps(t, ref, ops)

	ix, err := CreateDurable(dir, bookstore(), durableBuildOpts(), DurableOptions{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	// A query naming an element no set holds is a read: it must not change
	// the state the log replays into.
	if _, _, err := ix.Query([]string{"never-added", "dune"}, 0.2, 1.0); err != nil {
		t.Fatal(err)
	}
	applyOps(t, ix, ops)
	// No Close: drop the index on the floor, as a crash would.

	re, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatalf("OpenDurable after simulated crash: %v", err)
	}
	defer re.Close()
	assertSameIndex(t, re, ix)
	assertSameIndex(t, re, ref)
}

// TestDurableAutoCheckpoint drives enough traffic through a tiny
// CheckpointBytes threshold to force several rotations and verifies
// compaction bounds the directory while recovery stays exact.
func TestDurableAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	ops := workloadOps(120)
	ref, err := Build(bookstore(), durableBuildOpts())
	if err != nil {
		t.Fatal(err)
	}
	applyOps(t, ref, ops)

	ix, err := CreateDurable(dir, bookstore(), durableBuildOpts(),
		DurableOptions{Sync: SyncNever, CheckpointBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	applyOps(t, ix, ops)
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(filepath.Join(dir, "shard-000"))
	if err != nil {
		t.Fatal(err)
	}
	// One prior generation is kept: at most current + one prior of each kind.
	if len(entries) > 4 {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("compaction left %d files: %v", len(entries), names)
	}
	re, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	assertSameIndex(t, re, ref)
}

// TestDurableNegativeStorageParameters checks that CreateDurable refuses
// a negative page size or payload per element, or a budget whose plan
// gives one filter index more than 2^16 tables, and writes nothing, where
// it used to checkpoint an index that OpenDurable could not reopen.
func TestDurableNegativeStorageParameters(t *testing.T) {
	for _, opt := range []Options{
		{Budget: 24, MinHashes: 48, Seed: 3, PageSize: -1},
		{Budget: 24, MinHashes: 48, Seed: 3, PayloadBytesPerElement: -1},
		{Budget: 70000, MinHashes: 16, Seed: 3},
	} {
		dir := t.TempDir()
		ix, err := CreateDurable(dir, bookstore(), opt, DurableOptions{})
		if err == nil {
			if err := ix.Close(); err != nil {
				t.Fatal(err)
			}
			_, err := OpenDurable(dir, DurableOptions{})
			t.Errorf("Budget %d, PageSize %d, PayloadBytesPerElement %d: CreateDurable accepted; reopen: %v",
				opt.Budget, opt.PageSize, opt.PayloadBytesPerElement, err)
			continue
		}
		if has, err := HasDurableState(dir); err != nil || has {
			t.Errorf("rejected CreateDurable left durable state (has=%v, err=%v)", has, err)
		}
	}
}

func TestDurableOpenErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := OpenDurable(filepath.Join(dir, "empty"), DurableOptions{}); !errors.Is(err, ErrNoDurableState) {
		t.Fatalf("OpenDurable on empty dir: %v, want ErrNoDurableState", err)
	}
	ix, err := CreateDurable(dir, bookstore(), durableBuildOpts(), DurableOptions{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := CreateDurable(dir, bookstore(), durableBuildOpts(), DurableOptions{}); err == nil {
		t.Fatal("CreateDurable over existing state succeeded")
	}
	has, err := HasDurableState(dir)
	if err != nil || !has {
		t.Fatalf("HasDurableState = %v, %v", has, err)
	}
}

func TestNonDurableIndexNoops(t *testing.T) {
	ix, err := Build(bookstore(), durableBuildOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatalf("Close of non-durable index: %v", err)
	}
	if err := ix.Checkpoint(); err == nil {
		t.Fatal("Checkpoint of non-durable index succeeded")
	}
	var nilIx *Index
	if err := nilIx.Close(); err != nil {
		t.Fatalf("Close of nil index: %v", err)
	}
}

func TestParseSyncMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncMode
		ok   bool
	}{
		{"always", SyncAlways, true},
		{"interval", SyncInterval, true},
		{"never", SyncNever, true},
		{"sometimes", 0, false},
	} {
		got, err := ParseSyncMode(tc.in)
		if tc.ok != (err == nil) || (tc.ok && got != tc.want) {
			t.Errorf("ParseSyncMode(%q) = %v, %v", tc.in, got, err)
		}
	}
	if SyncInterval.String() != "interval" {
		t.Errorf("SyncInterval.String() = %q", SyncInterval.String())
	}
}

// TestRecoveredRemovedSIDReadsEmpty pins what a removed sid looks like
// through the collection view — Sets, Get and QuerySID — on every index
// rebuilt from disk: a Save/Load copy, a durable reopen that replays the
// delete from the log, and one that loads it from the final checkpoint.
// All three read the sid as empty and answer QuerySID alike. (The index
// that ran the Remove keeps the content; see Index.Sets.)
func TestRecoveredRemovedSIDReadsEmpty(t *testing.T) {
	const removed = 3
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			opts := durableShardedBuildOpts(shards)
			live, err := Build(bookstore(), opts)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			dur, err := CreateDurable(dir, bookstore(), opts, DurableOptions{Sync: SyncAlways})
			if err != nil {
				t.Fatal(err)
			}
			for _, ix := range []*Index{live, dur} {
				if err := ix.Remove(removed); err != nil {
					t.Fatal(err)
				}
			}
			loaded, err := Load(bytes.NewReader(saveBytes(t, live)))
			if err != nil {
				t.Fatal(err)
			}
			// Reopened before Close, the delete replays from the log.
			replayed, err := OpenDurable(dir, DurableOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if err := replayed.Close(); err != nil {
				t.Fatal(err)
			}
			// Reopened after Close, it comes from the final checkpoint.
			checkpointed, err := OpenDurable(dir, DurableOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer checkpointed.Close()

			want, _, err := loaded.QuerySID(removed, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			for name, ix := range map[string]*Index{"Save/Load": loaded, "log replay": replayed, "checkpoint": checkpointed} {
				got, err := ix.coll.Get(removed)
				if err != nil {
					t.Fatal(err)
				}
				matches, _, err := ix.QuerySID(removed, 0, 1)
				if err != nil {
					t.Fatal(err)
				}
				if n := ix.Sets()[removed].Len(); n != 0 || len(got) != 0 || !reflect.DeepEqual(matches, want) {
					t.Errorf("%s view of removed sid %d: %d elements, Get = %v, %d matches; want empty and %d matches",
						name, removed, n, got, len(matches), len(want))
				}
			}
		})
	}
}
