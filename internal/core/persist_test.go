package core

import (
	"bytes"
	"encoding/gob"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/minhash"
	"repro/internal/optimize"
	"repro/internal/workload"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	ix, sets := buildSmall(t, 400, 50)
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatalf("save: %v", err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
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

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not a snapshot")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Load(strings.NewReader("")); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := Load(strings.NewReader("SSRIDX1\ncorrupt-gob-payload")); err == nil {
		t.Error("corrupt payload accepted")
	}
}

func TestSaveLoadAfterDelete(t *testing.T) {
	ix, sets := buildSmall(t, 200, 40)
	if err := ix.Delete(5); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
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
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
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
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
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
	var sa, sb bytes.Buffer
	if err := ix.Save(&sa); err != nil {
		t.Fatal(err)
	}
	if err := loaded.Save(&sb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sa.Bytes(), sb.Bytes()) {
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

// TestLoadRejectsBadSnapshots drives the semantic validation: structurally
// valid gob with hostile values must error, not panic or allocate wildly.
func TestLoadRejectsBadSnapshots(t *testing.T) {
	base := func() snapshot {
		return snapshot{
			EmbedK:    4,
			EmbedBits: 6,
			Sets:      [][]uint64{{1, 2}},
			Sigs:      [][]uint64{{1, 2, 3, 4}},
			SIDs:      []uint32{0},
			NumSIDs:   1,
		}
	}
	cases := map[string]func(*snapshot){
		"all zero":        func(s *snapshot) { *s = snapshot{} },
		"zero k":          func(s *snapshot) { s.EmbedK = 0 },
		"huge k":          func(s *snapshot) { s.EmbedK = 1 << 30 },
		"huge bits":       func(s *snapshot) { s.EmbedBits = 64 },
		"negative page":   func(s *snapshot) { s.PageSize = -1 },
		"huge page":       func(s *snapshot) { s.PageSize = 1 << 20 },
		"huge payload":    func(s *snapshot) { s.PayloadPerElem = 1 << 40 },
		"sig mismatch":    func(s *snapshot) { s.Sigs = [][]uint64{{1}} },
		"sig count":       func(s *snapshot) { s.Sigs = nil },
		"sid count":       func(s *snapshot) { s.SIDs = nil },
		"sid out of room": func(s *snapshot) { s.SIDs = []uint32{9} },
		"huge sid space":  func(s *snapshot) { s.NumSIDs = 1 << 30 },
		"nan fi point": func(s *snapshot) {
			s.Plan.FIs = []optimize.FI{{Point: math.NaN(), Tables: 1}}
		},
		"fi point 0": func(s *snapshot) {
			s.Plan.FIs = []optimize.FI{{Point: 0, Tables: 1}}
		},
		"fi zero tables": func(s *snapshot) {
			s.Plan.FIs = []optimize.FI{{Point: 0.5, Tables: 0}}
		},
		"fi huge tables": func(s *snapshot) {
			s.Plan.FIs = []optimize.FI{{Point: 0.5, Tables: 1 << 20}}
		},
	}
	for name, mutate := range cases {
		snap := base()
		mutate(&snap)
		var buf bytes.Buffer
		buf.WriteString(snapshotMagic)
		if err := gob.NewEncoder(&buf).Encode(&snap); err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		if _, err := Load(&buf); err == nil {
			t.Errorf("%s: hostile snapshot accepted", name)
		}
	}
}

// TestLoadRejectsTrailingBytes requires Load to take exactly one snapshot
// value. The signing-family trailer older snapshots could carry
// ("SSRFAM1\n", base code 2, 64 bits/hash, a uint32 union hint) marks
// signatures drawn from another hash stream than the one the filters are
// rebuilt from, so a snapshot carrying
// one, or any other trailing byte, must fail to load; the bare snapshot
// still loads and saves back to the same bytes.
func TestLoadRejectsTrailingBytes(t *testing.T) {
	sets, err := workload.Generate(workload.Set1Params(80))
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(sets, smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	bare := buf.Bytes()
	trailer := append([]byte("SSRFAM1\n"), 2, 64, 40, 0, 0, 0)
	for name, tail := range map[string][]byte{"family trailer": trailer, "one byte": {0}} {
		raw := append(slices.Clip(bare), tail...)
		if _, err := Load(bytes.NewReader(raw)); err == nil {
			t.Errorf("%s: snapshot with trailing bytes loaded", name)
		}
	}
	loaded, err := Load(bytes.NewReader(bare))
	if err != nil {
		t.Fatalf("bare snapshot: %v", err)
	}
	var again bytes.Buffer
	if err := loaded.Save(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), bare) {
		t.Fatal("reloaded snapshot saves different bytes")
	}
}

// TestLoadToleratesOneULPCuts moves every partition point of a decoded
// snapshot up by one ulp. Load accepts such a plan (it checks FI points,
// not their tie to the cuts), so a range whose endpoints resolve to
// partition points must still find the filter indices planned there: the
// loaded index answers every range of a grid exactly as the original
// does, with the same candidate counts.
func TestLoadToleratesOneULPCuts(t *testing.T) {
	ix, sets := buildSmall(t, 1500, 200)
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()[len(snapshotMagic):]
	var snap snapshot
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Plan.Cuts) == 0 {
		t.Fatal("plan has no cuts to move")
	}
	for i, c := range snap.Plan.Cuts {
		snap.Plan.Cuts[i] = math.Nextafter(c, 2)
	}
	var moved bytes.Buffer
	moved.WriteString(snapshotMagic)
	if err := gob.NewEncoder(&moved).Encode(&snap); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&moved)
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
