package hashtable

import (
	"math/rand"
	"testing"

	"repro/internal/storage"
)

// sealedScenario returns a differential run at the scale where a seal has
// both kinds of run: 2 400 loaded sids (W = 38 words, so a run of 76 sids
// or more is a bitmap) under three heavy keys and 150 light ones, then
// sealed deletes, inserts that open new tail pages, sealed deletes after
// them, a Load of repeated, unsorted and already-sealed sids, more deletes
// and a second Load. Every Insert, Delete and Load is followed by a probe
// of its key, and each phase ends by probing every key.
func sealedScenario(rng *rand.Rand) (ops []tableOp, loaded map[storage.SID]uint64) {
	const n = 2400
	heavy := []uint64{0x9e3779b97f4a7c15, 0xc2b2ae3d27d4eb4f, 0x165667b19e3779f9}
	var keys []uint64
	keys = append(keys, heavy...)
	for i := 0; i < 150; i++ {
		keys = append(keys, uint64(i+1)*0xff51afd7ed558ccd)
	}
	keyOf := func() uint64 {
		switch x := rng.Intn(100); {
		case x < 35:
			return heavy[0]
		case x < 50:
			return heavy[1]
		case x < 58:
			return heavy[2]
		}
		return keys[3+rng.Intn(150)]
	}
	probeAll := func() {
		for _, k := range keys {
			ops = append(ops, tableOp{opProbe, k, 0})
		}
	}
	do := func(kind int, key uint64, sid storage.SID) {
		ops = append(ops, tableOp{kind, key, sid}, tableOp{opProbe, key, 0})
	}
	loaded = map[storage.SID]uint64{}
	for sid := storage.SID(0); sid < n; sid++ {
		loaded[sid] = keyOf()
		ops = append(ops, tableOp{opLoad, loaded[sid], sid})
	}
	probeAll()
	deleteSealed := func(count int) {
		for i := 0; i < count; i++ {
			// Late sids sit on their buckets' tail pages.
			sid := storage.SID(rng.Intn(n))
			if i%3 == 0 {
				sid = storage.SID(n - 1 - rng.Intn(60))
			}
			do(opDelete, loaded[sid], sid)
		}
		// Absent pairs: another key's sid, and a sid past every bitmap.
		do(opDelete, heavy[0], storage.SID(rng.Intn(n)))
		do(opDelete, heavy[1], 64*40)
	}
	deleteSealed(80)
	probeAll()
	// 8 buckets of 20-entry pages: 240 inserts open new tail pages in each.
	for sid := storage.SID(n); sid < n+240; sid++ {
		do(opInsert, keyOf(), sid)
	}
	deleteSealed(80)
	for sid := storage.SID(n + 240); sid < n+300; sid++ {
		do(opInsert, keyOf(), sid)
	}
	probeAll()
	// A Load of a new sid twice, descending new sids, an already-sealed
	// pair again and a sealed sid under another key.
	var batch []tableOp
	for _, sid := range []storage.SID{n + 400, n + 400, n + 350, n + 320, 7, 11, n + 10} {
		key := keyOf()
		if sid < n {
			key = loaded[sid]
		} else if sid == n+400 && len(batch) > 0 {
			key = batch[0].key
		}
		batch = append(batch, tableOp{opLoad, key, sid})
	}
	batch = append(batch, tableOp{opLoad, heavy[2], 13})
	ops = append(ops, batch...)
	probeAll()
	for _, op := range batch {
		do(opDelete, op.key, op.sid)
	}
	do(opDelete, loaded[13], 13)
	deleteSealed(40)
	// A second Load after deletes, of sids deleted and sids never seen.
	for i := 0; i < 40; i++ {
		sid := storage.SID(rng.Intn(n + 500))
		ops = append(ops, tableOp{opLoad, keyOf(), sid})
	}
	probeAll()
	deleteSealed(60)
	for sid := storage.SID(n + 600); sid < n+700; sid++ {
		do(opInsert, keyOf(), sid)
	}
	probeAll()
	return ops, loaded
}

// TestSealedRunsMatchPagedModel checks sealed runs against the paged model
// (TestTableMatchesPagedModel's harness) at a scale where a seal has both
// list and bitmap runs, and where its deletes hit both, hit tail pages
// before and after new tail pages open, and meet Loads into a sealed
// table. It then seals small tables, at one, two and twenty entries a
// page, whose buckets' shares of the Load end on, just past and well
// before a page boundary — so some buckets' sealed entries all sit on
// their tail and others' span pages — and deletes every sealed pair, sid
// 0 first, each delete followed by an insert under the same key that
// reuses or opens a tail page.
func TestSealedRunsMatchPagedModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		ops, loaded := sealedScenario(rand.New(rand.NewSource(seed)))
		opt := Options{Buckets: 8, ExpectedEntries: len(loaded)}

		// The leading Load seals both kinds of run.
		tab := newTable(t, opt)
		var sids []storage.SID
		var keys []uint64
		for sid := storage.SID(0); int(sid) < len(loaded); sid++ {
			sids, keys = append(sids, sid), append(keys, loaded[sid])
		}
		tab.Load(sids, keys)
		bitmaps, lists := 0, 0
		for _, r := range tab.runs {
			if r.n == bitmapRun {
				bitmaps++
			} else {
				lists++
			}
		}
		if bitmaps != 3 || lists < 100 || tab.words != 38 {
			t.Fatalf("seed %d: seal made %d bitmap and %d list runs of %d words, want 3, >= 100 and 38", seed, bitmaps, lists, tab.words)
		}

		checkAgainstModel(t, 256, opt, ops)
	}

	for _, pageSize := range []int{pageHeader + entrySize, pageHeader + 2*entrySize, 256} {
		for seed := int64(1); seed <= 30; seed++ {
			rng := rand.New(rand.NewSource(seed))
			n := 1 + rng.Intn(50)
			var loads, ops []tableOp
			for sid := 0; sid < n; sid++ {
				loads = append(loads, tableOp{opLoad, uint64(rng.Intn(6)) * 0x9e3779b97f4a7c15, storage.SID(sid)})
			}
			ops = append(ops, loads...)
			for i, op := range loads {
				ops = append(ops, tableOp{opDelete, op.key, op.sid}, tableOp{opProbe, op.key, 0},
					tableOp{opInsert, op.key, storage.SID(n + i)})
			}
			checkAgainstModel(t, pageSize, Options{Buckets: 3}, ops)
		}
	}
}
