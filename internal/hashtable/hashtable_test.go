package hashtable

import (
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
	tab := newTable(t, Options{ExpectedEntries: 10000})
	perPage := (256 - pageHeader) / entrySize
	want := (10000 + perPage - 1) / perPage
	if tab.Buckets() != want {
		t.Errorf("Buckets = %d, want %d", tab.Buckets(), want)
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

func TestEntryEncodingRoundTrip(t *testing.T) {
	p := make([]byte, 256)
	setPageEntry(p, 0, ^uint64(0), ^uint32(0))
	setPageEntry(p, 1, 0x0102030405060708, 42)
	k, s := pageEntry(p, 0)
	if k != ^uint64(0) || s != ^uint32(0) {
		t.Errorf("entry 0 = %x, %d", k, s)
	}
	k, s = pageEntry(p, 1)
	if k != 0x0102030405060708 || s != 42 {
		t.Errorf("entry 1 = %x, %d", k, s)
	}
}

func TestPageHeaderEncoding(t *testing.T) {
	p := make([]byte, 64)
	setPageNext(p, 0xDEADBEEF)
	setPageCount(p, 513)
	if pageNext(p) != 0xDEADBEEF {
		t.Errorf("next = %x", pageNext(p))
	}
	if pageCount(p) != 513 {
		t.Errorf("count = %d", pageCount(p))
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

// TestPageEntryRoundTrip writes and reads back every slot of the smallest
// page (one entry) and of a MaxPageSize page, with high-bit keys and sids
// from 0xFFFFFFFF down. Each page is allocated at exactly its size, so a
// read past the last slot would panic.
func TestPageEntryRoundTrip(t *testing.T) {
	for _, size := range []int{pageHeader + entrySize, MaxPageSize} {
		p := make([]byte, size)
		slots := (size - pageHeader) / entrySize
		key := func(i int) uint64 { return 1<<63 | uint64(i)*0x9e3779b97f4a7c15 }
		sid := func(i int) storage.SID { return ^storage.SID(0) - storage.SID(i) }
		for i := 0; i < slots; i++ {
			setPageEntry(p, i, key(i), sid(i))
		}
		for i := 0; i < slots; i++ {
			if k, s := pageEntry(p, i); k != key(i) || s != sid(i) {
				t.Fatalf("page %d slot %d = (%x, %x), want (%x, %x)", size, i, k, s, key(i), sid(i))
			}
		}
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
