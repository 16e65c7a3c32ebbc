package core

import (
	"bytes"
	"encoding/gob"
	"math"
	"slices"
	"testing"

	"repro/internal/minhash"
	"repro/internal/optimize"
	"repro/internal/workload"
)

// restored captures ix's Snapshot and restores it, as an image's round
// trip does on each of its parts.
func restored(t testing.TB, ix *Index) *Index {
	t.Helper()
	snap := ix.Snapshot()
	loaded, err := Restore(&snap)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	return loaded
}

// snapshotBytes gob-encodes ix's Snapshot: the core's share of every
// image, so equal bytes mean equal durable state.
func snapshotBytes(t testing.TB, ix *Index) []byte {
	t.Helper()
	snap := ix.Snapshot()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&snap); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSaveLoadRoundTrip(t *testing.T) {
	ix, sets := buildSmall(t, 400, 50)
	loaded := restored(t, ix)
	if loaded.Len() != ix.Len() {
		t.Fatalf("loaded %d sets, want %d", loaded.Len(), ix.Len())
	}
	// The rebuild is deterministic: identical plans and identical query
	// results.
	if got, want := loaded.Plan().Cuts, ix.Plan().Cuts; len(got) != len(want) {
		t.Fatalf("cuts differ: %v vs %v", got, want)
	}
	qs, err := workload.Queries(len(sets), workload.QueryParams{Count: 10, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		a, _, err := ix.QueryWithOptions(sets[q.SID], q.Lo, q.Hi, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := loaded.QueryWithOptions(sets[q.SID], q.Lo, q.Hi, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("query %v: %d vs %d results after reload", q, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("query %v: result %d differs: %+v vs %+v", q, i, a[i], b[i])
			}
		}
	}
}

func TestSaveLoadAfterDelete(t *testing.T) {
	ix, sets := buildSmall(t, 200, 40)
	if err := ix.Delete(5); err != nil {
		t.Fatal(err)
	}
	loaded := restored(t, ix)
	if loaded.Len() != len(sets)-1 {
		t.Errorf("loaded %d sets, want %d (deleted sets compacted)", loaded.Len(), len(sets)-1)
	}
}

func TestSaveLoadPreservesEmbedding(t *testing.T) {
	sets, err := workload.Generate(workload.Set1Params(150))
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(sets, Options{
		Embed: minhash.Options{K: 48, Bits: 6, Seed: 99},
		Plan:  optimize.Options{Budget: 30, RecallTarget: 0.7},
	})
	if err != nil {
		t.Fatal(err)
	}
	loaded := restored(t, ix)
	if loaded.Embedder().K() != 48 {
		t.Errorf("K = %d after reload", loaded.Embedder().K())
	}
	if d := loaded.Embedder().K() << loaded.BuildOptions().Embed.Bits; d != 48*64 {
		t.Errorf("dimension = %d after reload", d)
	}
}

// TestSaveLoadPreservesSIDs pins the sid-preserving layout: deleted sids
// come back as tombstones, so sid-addressed operations (replay from a log,
// a follow-up Insert) behave exactly as on the saved index, and a second
// Save emits byte-identical output.
func TestSaveLoadPreservesSIDs(t *testing.T) {
	ix, sets := buildSmall(t, 200, 40)
	for _, sid := range []uint32{5, 0, 123} {
		if err := ix.Delete(sid); err != nil {
			t.Fatal(err)
		}
	}
	loaded := restored(t, ix)
	if loaded.Len() != len(sets)-3 {
		t.Fatalf("loaded %d live sets, want %d", loaded.Len(), len(sets)-3)
	}
	// Tombstones survive: re-deleting errors, live sids delete fine.
	if err := loaded.Delete(5); err == nil {
		t.Fatal("deleting a tombstoned sid succeeded after reload")
	}
	if err := loaded.Delete(7); err != nil {
		t.Fatalf("deleting live sid 7 after reload: %v", err)
	}
	if err := ix.Delete(7); err != nil {
		t.Fatal(err)
	}
	// The next insert lands on the same sid in both.
	a, err := ix.Insert(sets[3])
	if err != nil {
		t.Fatal(err)
	}
	b, err := loaded.Insert(sets[3])
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("insert sid diverged after reload: %d vs %d", a, b)
	}
	// Both indices now hold identical state: snapshots are byte-identical.
	if !bytes.Equal(snapshotBytes(t, ix), snapshotBytes(t, loaded)) {
		t.Fatal("snapshots diverge after reload + identical mutations")
	}
	// And queries agree.
	q := sets[42]
	ra, _, err := ix.QueryWithOptions(q, 0.3, 1.0, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rb, _, err := loaded.QueryWithOptions(q, 0.3, 1.0, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ra) != len(rb) {
		t.Fatalf("query results differ: %d vs %d", len(ra), len(rb))
	}
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("result %d differs: %+v vs %+v", i, ra[i], rb[i])
		}
	}
}

// TestLoadRejectsBadSnapshots drives the semantic validation: snapshots
// with hostile values — what a structurally valid image can decode to —
// must be refused by Restore, not panic or allocate wildly.
func TestLoadRejectsBadSnapshots(t *testing.T) {
	base := func() Snapshot {
		return Snapshot{
			EmbedK:    4,
			EmbedBits: 6,
			Sets:      [][]uint64{{1, 2}},
			Sigs:      [][]uint64{{1, 2, 3, 4}},
			SIDs:      []uint32{0},
			NumSIDs:   1,
		}
	}
	cases := map[string]func(*Snapshot){
		"all zero":        func(s *Snapshot) { *s = Snapshot{} },
		"zero k":          func(s *Snapshot) { s.EmbedK = 0 },
		"huge k":          func(s *Snapshot) { s.EmbedK = 1 << 30 },
		"huge bits":       func(s *Snapshot) { s.EmbedBits = 64 },
		"negative page":   func(s *Snapshot) { s.PageSize = -1 },
		"huge page":       func(s *Snapshot) { s.PageSize = 1 << 20 },
		"huge payload":    func(s *Snapshot) { s.PayloadPerElem = 1 << 40 },
		"sig mismatch":    func(s *Snapshot) { s.Sigs = [][]uint64{{1}} },
		"sig count":       func(s *Snapshot) { s.Sigs = nil },
		"sid count":       func(s *Snapshot) { s.SIDs = nil },
		"sid out of room": func(s *Snapshot) { s.SIDs = []uint32{9} },
		"huge sid space":  func(s *Snapshot) { s.NumSIDs = 1 << 30 },
		"nan fi point": func(s *Snapshot) {
			s.Plan.FIs = []optimize.FI{{Point: math.NaN(), Tables: 1}}
		},
		"fi point 0": func(s *Snapshot) {
			s.Plan.FIs = []optimize.FI{{Point: 0, Tables: 1}}
		},
		"fi zero tables": func(s *Snapshot) {
			s.Plan.FIs = []optimize.FI{{Point: 0.5, Tables: 0}}
		},
		"fi huge tables": func(s *Snapshot) {
			s.Plan.FIs = []optimize.FI{{Point: 0.5, Tables: 1 << 20}}
		},
	}
	for name, mutate := range cases {
		snap := base()
		mutate(&snap)
		if _, err := Restore(&snap); err == nil {
			t.Errorf("%s: hostile snapshot accepted", name)
		}
	}
}

// TestLoadToleratesOneULPCuts moves every partition point of a captured
// snapshot up by one ulp. Restore accepts such a plan (it checks FI points,
// not their tie to the cuts), so a range whose endpoints resolve to
// partition points must still find the filter indices planned there: the
// loaded index answers every range of a grid exactly as the original
// does, with the same candidate counts.
func TestLoadToleratesOneULPCuts(t *testing.T) {
	ix, sets := buildSmall(t, 1500, 200)
	snap := ix.Snapshot()
	if len(snap.Plan.Cuts) == 0 {
		t.Fatal("plan has no cuts to move")
	}
	snap.Plan.Cuts = slices.Clone(snap.Plan.Cuts)
	for i, c := range snap.Plan.Cuts {
		snap.Plan.Cuts[i] = math.Nextafter(c, 2)
	}
	loaded, err := Restore(&snap)
	if err != nil {
		t.Fatalf("load with cuts one ulp up: %v", err)
	}
	for _, sid := range []int{0, 700} {
		for lo := 0; lo < 10; lo++ {
			for hi := lo + 1; hi <= 10; hi++ {
				l, h := float64(lo)/10, float64(hi)/10
				want, wst, werr := ix.QueryWithOptions(sets[sid], l, h, QueryOptions{})
				got, gst, gerr := loaded.QueryWithOptions(sets[sid], l, h, QueryOptions{})
				if (werr == nil) != (gerr == nil) {
					t.Fatalf("set %d [%g, %g]: error %v, want %v", sid, l, h, gerr, werr)
				}
				if gst.Candidates != wst.Candidates || !slices.Equal(got, want) {
					t.Errorf("set %d [%g, %g]: %d results from %d candidates, want %d from %d",
						sid, l, h, len(got), gst.Candidates, len(want), wst.Candidates)
				}
			}
		}
	}
}
