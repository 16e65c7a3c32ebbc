package hashtable

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/storage"
)

func newTable(t *testing.T, opt Options) *Table {
	t.Helper()
	tab, err := New(256, opt)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// probe returns the sids Probe marks for key, ascending.
func probe(tab *Table, key uint64, io *storage.Counter) []storage.SID {
	return AppendMarked(nil, tab.Probe(key, io, nil))
}

func TestInsertProbeExact(t *testing.T) {
	tab := newTable(t, Options{ExpectedEntries: 100})
	tab.Insert(111, 1)
	tab.Insert(222, 2)
	tab.Insert(111, 3)
	got := probe(tab, 111, nil)
	if len(got) != 2 {
		t.Fatalf("Probe(111) = %v", got)
	}
	seen := map[storage.SID]bool{}
	for _, sid := range got {
		seen[sid] = true
	}
	if !seen[1] || !seen[3] || seen[2] {
		t.Errorf("Probe(111) = %v, want sids 1 and 3", got)
	}
	if tab.Entries() != 3 {
		t.Errorf("Entries = %d", tab.Entries())
	}
}

func TestProbeMissingKey(t *testing.T) {
	tab := newTable(t, Options{ExpectedEntries: 10})
	tab.Insert(5, 50)
	if got := probe(tab, 999999, nil); len(got) != 0 {
		t.Errorf("probe of absent key returned %v", got)
	}

	// A single bucket forces every key to share it: a probe still returns
	// only the sids stored under its own key.
	shared := newTable(t, Options{Buckets: 1})
	shared.Insert(1, 10)
	shared.Insert(2, 20)
	if got := probe(shared, 3, nil); len(got) != 0 {
		t.Errorf("shared-bucket probe of absent key returned %v", got)
	}
	if got := probe(shared, 1, nil); len(got) != 1 || got[0] != 10 {
		t.Errorf("shared-bucket Probe(1) = %v, want [10]", got)
	}
}

func TestWholeBucketMode(t *testing.T) {
	// Force a single bucket so every key lands in it: probing either key
	// must not return the whole bucket, only that key's sids.
	tab := newTable(t, Options{Buckets: 1})
	tab.Insert(1, 10)
	tab.Insert(2, 20)
	tab.Insert(1, 11)
	for key, want := range map[uint64][]storage.SID{1: {10, 11}, 2: {20}} {
		got := probe(tab, key, nil)
		if len(got) != len(want) {
			t.Fatalf("Probe(%d) = %v, want %v", key, got, want)
		}
		seen := map[storage.SID]bool{}
		for _, sid := range got {
			seen[sid] = true
		}
		for _, sid := range want {
			if !seen[sid] {
				t.Errorf("Probe(%d) = %v, want %v", key, got, want)
			}
		}
	}
}

func TestOverflowChains(t *testing.T) {
	// One bucket, many entries: must chain overflow pages and return all.
	tab := newTable(t, Options{Buckets: 1})
	const n = 500
	for i := 0; i < n; i++ {
		tab.Insert(77, storage.SID(i))
	}
	var io storage.Counter
	got := probe(tab, 77, &io)
	if len(got) != n {
		t.Fatalf("probe returned %d of %d entries", len(got), n)
	}
	perPage := (256 - pageHeader) / entrySize
	wantPages := int64((n + perPage - 1) / perPage)
	if io.Rand() != wantPages {
		t.Errorf("charged %d page reads, want %d", io.Rand(), wantPages)
	}
}

func TestBucketsSizedFromExpectedEntries(t *testing.T) {
	// A page size of zero selects storage.DefaultPageSize; a negative one
	// is refused, as core refuses it in a build's options.
	if _, err := New(-5, Options{ExpectedEntries: 10000}); err == nil {
		t.Error("page size -5 accepted")
	}
	for _, size := range []int{256, 0} {
		tab, err := New(size, Options{ExpectedEntries: 10000})
		if err != nil {
			t.Fatal(err)
		}
		if size == 0 {
			size = storage.DefaultPageSize
		}
		perPage := (size - pageHeader) / entrySize
		if want := (10000 + perPage - 1) / perPage; tab.Buckets() != want {
			t.Errorf("page size %d: Buckets = %d, want %d", size, tab.Buckets(), want)
		}
	}
}

func TestDefaultBuckets(t *testing.T) {
	tab := newTable(t, Options{})
	if tab.Buckets() != 64 {
		t.Errorf("default Buckets = %d", tab.Buckets())
	}
}

func TestPageTooSmall(t *testing.T) {
	if _, err := New(8, Options{}); err == nil {
		t.Error("8-byte pages accepted")
	}
	// The page header counts entries in 16 bits: one entry more than that
	// would wrap the count and silently drop sids.
	if (MaxPageSize-pageHeader)/entrySize != 1<<16-1 || (MaxPageSize+1-pageHeader)/entrySize != 1<<16 {
		t.Fatalf("MaxPageSize %d is not the last size under a 2^16-entry page", MaxPageSize)
	}
	if _, err := New(MaxPageSize, Options{}); err != nil {
		t.Errorf("%d-byte pages rejected: %v", MaxPageSize, err)
	}
	if _, err := New(MaxPageSize+1, Options{}); err == nil {
		t.Errorf("%d-byte pages accepted", MaxPageSize+1)
	}
}

func TestManyKeysNoCrossContamination(t *testing.T) {
	tab := newTable(t, Options{ExpectedEntries: 2000})
	rng := rand.New(rand.NewSource(4))
	ref := make(map[uint64][]storage.SID)
	for i := 0; i < 2000; i++ {
		key := rng.Uint64() % 500
		sid := storage.SID(i)
		ref[key] = append(ref[key], sid)
		tab.Insert(key, sid)
	}
	for key, want := range ref {
		got := probe(tab, key, nil)
		if len(got) != len(want) {
			t.Fatalf("key %d: %d sids, want %d", key, len(got), len(want))
		}
		seen := map[storage.SID]bool{}
		for _, s := range got {
			seen[s] = true
		}
		for _, s := range want {
			if !seen[s] {
				t.Fatalf("key %d missing sid %d", key, s)
			}
		}
	}
}

func TestProbeGrowsMarks(t *testing.T) {
	tab := newTable(t, Options{ExpectedEntries: 10})
	tab.Insert(1, 100)
	tab.Insert(1, 3)
	// A short bitset keeps its marks and grows, zero-filled, to the
	// highest sid; stale words past its length must not leak in.
	backing := []uint64{1 << 5, ^uint64(0), ^uint64(0)}
	got := AppendMarked(nil, tab.Probe(1, nil, backing[:1:1]))
	if !slices.Equal(got, []storage.SID{3, 5, 100}) {
		t.Errorf("Probe into a short bitset = %v, want [3 5 100]", got)
	}
	got = AppendMarked(nil, tab.Probe(1, nil, backing[:1]))
	if !slices.Equal(got, []storage.SID{3, 5, 100}) {
		t.Errorf("Probe into a short bitset with spare capacity = %v, want [3 5 100]", got)
	}
	if got := AppendMarked([]storage.SID{7}, []uint64{0, 1<<63 | 1}); !slices.Equal(got, []storage.SID{7, 64, 127}) {
		t.Errorf("AppendMarked = %v, want [7 64 127]", got)
	}
}

func TestDelete(t *testing.T) {
	tab := newTable(t, Options{ExpectedEntries: 100})
	tab.Insert(1, 10)
	tab.Insert(1, 11)
	tab.Insert(2, 20)
	if got := tab.Delete(1, 10); got != 1 {
		t.Fatalf("Delete removed %d entries, want 1", got)
	}
	got := probe(tab, 1, nil)
	if len(got) != 1 || got[0] != 11 {
		t.Errorf("Probe(1) after delete = %v, want [11]", got)
	}
	if got := probe(tab, 2, nil); len(got) != 1 {
		t.Errorf("unrelated key disturbed: %v", got)
	}
	if tab.Entries() != 2 {
		t.Errorf("Entries = %d, want 2", tab.Entries())
	}
	if got := tab.Delete(1, 10); got != 0 {
		t.Errorf("second delete removed %d", got)
	}
}

func TestDeleteFromOverflowChain(t *testing.T) {
	tab := newTable(t, Options{Buckets: 1})
	const n = 300
	for i := 0; i < n; i++ {
		tab.Insert(uint64(i%7), storage.SID(i))
	}
	// Delete every entry of key 3 across the chain.
	want := 0
	for i := 0; i < n; i++ {
		if i%7 == 3 {
			want++
		}
	}
	removed := 0
	for i := 0; i < n; i++ {
		if i%7 == 3 {
			removed += tab.Delete(3, storage.SID(i))
		}
	}
	if removed != want {
		t.Fatalf("removed %d, want %d", removed, want)
	}
	if got := probe(tab, 3, nil); len(got) != 0 {
		t.Errorf("key 3 still has %d entries", len(got))
	}
	// All other keys intact.
	total := 0
	for k := uint64(0); k < 7; k++ {
		total += len(probe(tab, k, nil))
	}
	if total != n-want {
		t.Errorf("%d entries remain, want %d", total, n-want)
	}
}

// pagedTable is the reference model of a Table: the paper's layout stored
// as bytes. Each bucket is a chain of pages, each page a header (next-page
// id, entry count) followed by 12-byte entries; a probe decodes every entry
// of every page in the chain and is charged one random read per page. A
// Table must be indistinguishable from it through the exported API.
type pagedTable struct {
	pages       [][]byte
	first, last []uint32
	entries     int
	perPage     int
	pageSize    int
}

const noPage = ^uint32(0)

func newPagedTable(t testing.TB, pageSize int, opt Options) *pagedTable {
	t.Helper()
	tab, err := New(pageSize, opt) // validates the options and sizes the directory
	if err != nil {
		t.Fatal(err)
	}
	if pageSize <= 0 {
		pageSize = storage.DefaultPageSize
	}
	m := &pagedTable{
		first:    make([]uint32, tab.Buckets()),
		last:     make([]uint32, tab.Buckets()),
		perPage:  (pageSize - pageHeader) / entrySize,
		pageSize: pageSize,
	}
	for i := range m.first {
		m.first[i], m.last[i] = noPage, noPage
	}
	return m
}

func pageCount(p []byte) int { return int(binary.LittleEndian.Uint16(p[4:])) }

func setPageCount(p []byte, n int) { binary.LittleEndian.PutUint16(p[4:], uint16(n)) }

func pageNext(p []byte) uint32 { return binary.LittleEndian.Uint32(p) }

func pageEntry(p []byte, i int) (uint64, storage.SID) {
	e := p[pageHeader+i*entrySize:][:entrySize]
	return binary.LittleEndian.Uint64(e), binary.LittleEndian.Uint32(e[8:])
}

func setPageEntry(p []byte, i int, key uint64, sid storage.SID) {
	e := p[pageHeader+i*entrySize:][:entrySize]
	binary.LittleEndian.PutUint64(e, key)
	binary.LittleEndian.PutUint32(e[8:], sid)
}

func (m *pagedTable) bucket(key uint64) int { return int(mix(key) % uint64(len(m.first))) }

func (m *pagedTable) allocPage() uint32 {
	p := make([]byte, m.pageSize)
	binary.LittleEndian.PutUint32(p, noPage)
	m.pages = append(m.pages, p)
	return uint32(len(m.pages) - 1)
}

func (m *pagedTable) Insert(key uint64, sid storage.SID) {
	b := m.bucket(key)
	if m.last[b] == noPage {
		id := m.allocPage()
		m.first[b], m.last[b] = id, id
	}
	p := m.pages[m.last[b]]
	n := pageCount(p)
	if n == m.perPage {
		id := m.allocPage()
		binary.LittleEndian.PutUint32(p, id)
		m.last[b] = id
		p, n = m.pages[id], 0
	}
	setPageEntry(p, n, key, sid)
	setPageCount(p, n+1)
	m.entries++
}

func (m *pagedTable) Probe(key uint64, io *storage.Counter, marks []uint64) []uint64 {
	for id := m.first[m.bucket(key)]; id != noPage; id = pageNext(m.pages[id]) {
		io.RecordRand(1)
		p := m.pages[id]
		for i := 0; i < pageCount(p); i++ {
			if k, sid := pageEntry(p, i); k == key {
				w := int(sid >> 6)
				if w >= len(marks) {
					marks = append(marks, make([]uint64, w+1-len(marks))...)
				}
				marks[w] |= 1 << (sid & 63)
			}
		}
	}
	return marks
}

// Delete removes every (key, sid) pair, moving each page's last entry into
// the hole it leaves.
func (m *pagedTable) Delete(key uint64, sid storage.SID) int {
	removed := 0
	for id := m.first[m.bucket(key)]; id != noPage; id = pageNext(m.pages[id]) {
		p := m.pages[id]
		for i, n := 0, pageCount(p); i < n; {
			if k, s := pageEntry(p, i); k == key && s == sid {
				lk, ls := pageEntry(p, n-1)
				setPageEntry(p, i, lk, ls)
				n--
				setPageCount(p, n)
				removed++
				continue
			}
			i++
		}
	}
	m.entries -= removed
	return removed
}

// Operations of a differential run. A run of consecutive opLoad pairs is
// applied to the Table as one Load and to the model as Inserts in order.
const (
	opInsert = iota
	opDelete
	opProbe
	opLoad
	numOps
)

type tableOp struct {
	kind int
	key  uint64
	sid  storage.SID
}

// checkAgainstModel applies ops to a Table and to the paged model built
// with the same options, failing on the first difference in probe marks,
// probe charges, Delete counts, Entries or Pages. At the end every key the
// run touched is probed once more.
func checkAgainstModel(t testing.TB, pageSize int, opt Options, ops []tableOp) {
	t.Helper()
	tab, err := New(pageSize, opt)
	if err != nil {
		t.Fatal(err)
	}
	model := newPagedTable(t, pageSize, opt)
	keys := map[uint64]bool{}
	probeBoth := func(step int, key uint64) {
		var gotIO, wantIO storage.Counter
		got := AppendMarked(nil, tab.Probe(key, &gotIO, nil))
		want := AppendMarked(nil, model.Probe(key, &wantIO, nil))
		if !slices.Equal(got, want) || gotIO.Rand() != wantIO.Rand() {
			t.Fatalf("step %d: Probe(%#x) = %v charged %d, model %v charged %d", step, key, got, gotIO.Rand(), want, wantIO.Rand())
		}
	}
	for i := 0; i < len(ops); i++ {
		op := ops[i]
		keys[op.key] = true
		switch op.kind {
		case opInsert:
			tab.Insert(op.key, op.sid)
			model.Insert(op.key, op.sid)
		case opDelete:
			if got, want := tab.Delete(op.key, op.sid), model.Delete(op.key, op.sid); got != want {
				t.Fatalf("step %d: Delete(%#x, %d) = %d, model %d", i, op.key, op.sid, got, want)
			}
		case opProbe:
			probeBoth(i, op.key)
		case opLoad:
			var sids []storage.SID
			var ks []uint64
			for ; i < len(ops) && ops[i].kind == opLoad; i++ {
				keys[ops[i].key] = true
				sids, ks = append(sids, ops[i].sid), append(ks, ops[i].key)
				model.Insert(ops[i].key, ops[i].sid)
			}
			i--
			tab.Load(sids, ks)
		}
		if tab.Entries() != model.entries || tab.Pages() != len(model.pages) {
			t.Fatalf("step %d: Entries %d Pages %d, model %d and %d", i, tab.Entries(), tab.Pages(), model.entries, len(model.pages))
		}
	}
	for key := range keys {
		probeBoth(len(ops), key)
	}
}

// TestTableMatchesPagedModel runs seeded random sequences of Insert,
// Delete, Probe and Load against the paged model: repeated pairs, deletes
// of absent pairs, one shared bucket, and two-entry pages whose chains grow
// long.
func TestTableMatchesPagedModel(t *testing.T) {
	configs := []struct {
		pageSize int
		opt      Options
	}{
		{256, Options{ExpectedEntries: 200}},
		{256, Options{Buckets: 1}},
		{30, Options{Buckets: 1}},
		{30, Options{ExpectedEntries: 40}},
		{30, Options{Buckets: 3, ExpectedEntries: 1000}},
		{0, Options{}},
	}
	for ci, c := range configs {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed*100 + int64(ci)))
			var ops []tableOp
			// A leading bulk load of ascending sids, as a build does.
			for sid, n := 0, rng.Intn(300); sid < n; sid++ {
				ops = append(ops, tableOp{opLoad, uint64(rng.Intn(12)), storage.SID(sid)})
			}
			for n := 0; n < 400; n++ {
				kind := rng.Intn(numOps)
				if kind == opLoad && rng.Intn(4) > 0 {
					kind = opInsert
				}
				ops = append(ops, tableOp{kind, uint64(rng.Intn(12)) * 0x9e3779b97f4a7c15, storage.SID(rng.Intn(150))})
			}
			checkAgainstModel(t, c.pageSize, c.opt, ops)
		}
	}
}

// FuzzTableOps decodes a page size, a directory and an operation stream
// from the input and checks the Table against the paged model.
func FuzzTableOps(f *testing.F) {
	f.Add([]byte{1, 1, 0, 3, 1, 1, 3, 1, 2, 0, 1, 3, 1, 1, 1, 2, 1, 0})
	f.Add([]byte{0, 0, 10, 0, 5, 200, 0, 5, 201, 0, 5, 200, 2, 5, 0, 1, 5, 200, 2, 5, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		pageSize := pageHeader + entrySize*(1+int(data[0]%8))
		opt := Options{Buckets: int(data[1] % 4), ExpectedEntries: 4 * int(data[2])}
		var ops []tableOp
		for b := data[3:]; len(b) >= 3; b = b[3:] {
			ops = append(ops, tableOp{int(b[0] % numOps), uint64(b[1]%16) * 0x9e3779b97f4a7c15, storage.SID(b[2])})
		}
		checkAgainstModel(t, pageSize, opt, ops)
	})
}
