package core

import (
	"testing"

	"repro/internal/set"
	"repro/internal/workload"
)

// TestDeleteRemovesOneEntryPerTable requires Delete to remove exactly
// Tables() entries from every filter index, for a built sid and for an
// Inserted one. Insert keys a set by the signature it stores and Delete by
// the stored signature it finds; if the two ever disagreed, stale entries
// would stay behind in the tables unnoticed.
// The one case is named for the stored signature: classic k-min hashing
// with full 64-bit slots.
func TestDeleteRemovesOneEntryPerTable(t *testing.T) {
	t.Run("classic-64", func(t *testing.T) {
		sets, err := workload.Generate(workload.Set1Params(120))
		if err != nil {
			t.Fatal(err)
		}
		ix, err := Build(sets, smallOptions())
		if err != nil {
			t.Fatal(err)
		}
		inserted, err := ix.Insert(set.New(sets[5].Elems()...))
		if err != nil {
			t.Fatal(err)
		}
		for _, sid := range []uint32{17, inserted} {
			before := make([]int, len(ix.fis))
			for i, f := range ix.fis {
				before[i] = f.Entries()
			}
			if err := ix.Delete(sid); err != nil {
				t.Fatal(err)
			}
			for i, f := range ix.fis {
				if got := before[i] - f.Entries(); got != f.Tables() {
					t.Errorf("sid %d: filter index %d lost %d entries, want %d", sid, i, got, f.Tables())
				}
			}
		}
	})
}

func TestDeleteRemovesFromResults(t *testing.T) {
	ix, sets := buildSmall(t, 300, 40)
	// Find a set with at least one high-similarity neighbour: its twin
	// must disappear after deletion.
	matches, _, err := ix.QueryWithOptions(sets[0], 0.95, 1.0, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 {
		t.Fatal("set 0 did not even retrieve itself")
	}
	victim := matches[0].SID
	if err := ix.Delete(victim); err != nil {
		t.Fatalf("delete: %v", err)
	}
	after, _, err := ix.QueryWithOptions(sets[0], 0.0, 1.0, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range after {
		if m.SID == victim {
			t.Fatalf("deleted sid %d still returned", victim)
		}
	}
	if ix.Len() != 299 {
		t.Errorf("Len = %d after delete, want 299", ix.Len())
	}
}

func TestDeleteValidation(t *testing.T) {
	ix, _ := buildSmall(t, 100, 30)
	if err := ix.Delete(10000); err == nil {
		t.Error("out-of-range delete accepted")
	}
	if err := ix.Delete(3); err != nil {
		t.Fatalf("first delete: %v", err)
	}
	if err := ix.Delete(3); err == nil {
		t.Error("double delete accepted")
	}
}

func TestDeleteThenInsert(t *testing.T) {
	ix, sets := buildSmall(t, 200, 40)
	if err := ix.Delete(7); err != nil {
		t.Fatal(err)
	}
	// New sets keep working after a delete; sids are never reused.
	elems := append([]set.Elem(nil), sets[7].Elems()...)
	sid, err := ix.Insert(set.New(elems...))
	if err != nil {
		t.Fatal(err)
	}
	if int(sid) != 200 {
		t.Errorf("new sid = %d, want 200 (no reuse)", sid)
	}
	matches, _, err := ix.QueryWithOptions(sets[7], 0.99, 1.0, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	foundNew, foundOld := false, false
	for _, m := range matches {
		if m.SID == sid {
			foundNew = true
		}
		if m.SID == 7 {
			foundOld = true
		}
	}
	if !foundNew {
		t.Error("reinserted set not retrieved")
	}
	if foundOld {
		t.Error("deleted set retrieved")
	}
}

func TestDeleteAllNeighbours(t *testing.T) {
	// Delete everything a query would return; the query must then come
	// back empty rather than erroring on tombstoned fetches.
	ix, sets := buildSmall(t, 150, 30)
	matches, _, err := ix.QueryWithOptions(sets[0], 0.5, 1.0, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range matches {
		if err := ix.Delete(m.SID); err != nil {
			t.Fatalf("delete %d: %v", m.SID, err)
		}
	}
	after, _, err := ix.QueryWithOptions(sets[0], 0.5, 1.0, QueryOptions{})
	if err != nil {
		t.Fatalf("query after deletes: %v", err)
	}
	if len(after) != 0 {
		t.Errorf("expected empty result, got %d", len(after))
	}
}
