package storage

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/set"
	"repro/internal/workload"
)

func TestCostModelTime(t *testing.T) {
	m := CostModel{SeqPageTime: time.Millisecond, RTN: 8}
	if got := m.Time(10, 0); got != 10*time.Millisecond {
		t.Errorf("seq time = %v", got)
	}
	if got := m.Time(0, 1); got != 8*time.Millisecond {
		t.Errorf("rand time = %v", got)
	}
	if got := m.Time(2, 3); got != 26*time.Millisecond {
		t.Errorf("mixed time = %v", got)
	}
}

func TestDefaultCostModelRTN(t *testing.T) {
	m := DefaultCostModel()
	if m.RTN != 8 {
		t.Errorf("rtn = %g, want the paper's 8", m.RTN)
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.RecordSeq(5)
	c.RecordRand(2)
	c.RecordSeq(1)
	if c.Seq() != 6 || c.Rand() != 2 {
		t.Errorf("counter = %v", c.String())
	}
	m := CostModel{SeqPageTime: time.Microsecond, RTN: 8}
	if got := c.SimTime(m); got != 22*time.Microsecond {
		t.Errorf("SimTime = %v", got)
	}
	c.Reset()
	if c.Seq() != 0 || c.Rand() != 0 {
		t.Error("Reset failed")
	}
}

func TestSetStoreRoundTrip(t *testing.T) {
	st := NewSetStore(64)
	sets := []set.Set{
		set.New(1, 2, 3),
		set.New(),
		set.New(100, 5, 999999999),
		set.New(7),
	}
	var sids []SID
	for _, s := range sets {
		sids = append(sids, st.Append(s))
	}
	for i, sid := range sids {
		if sid != SID(i) {
			t.Errorf("sid %d assigned %d", i, sid)
		}
		got, err := st.Fetch(sid, nil)
		if err != nil {
			t.Fatalf("fetch %d: %v", sid, err)
		}
		if !got.Equal(sets[i]) {
			t.Errorf("set %d round-trip: got %v want %v", i, got.Elems(), sets[i].Elems())
		}
	}
	if st.Len() != 4 {
		t.Errorf("Len = %d", st.Len())
	}
}

func TestSetStoreFetchIO(t *testing.T) {
	st := NewSetStore(32) // tiny pages force multi-page records
	big := make([]set.Elem, 100)
	for i := range big {
		big[i] = set.Elem(i * 1000000) // large deltas → several bytes each
	}
	sid := st.Append(set.New(big...))
	var io Counter
	if _, err := st.Fetch(sid, &io); err != nil {
		t.Fatal(err)
	}
	if io.Rand() != 1 {
		t.Errorf("rand reads = %d, want exactly 1 (first page)", io.Rand())
	}
	off, end := st.span(sid)
	if want := st.recordPages(off, end-off) - 1; io.Seq() != want || want < 1 {
		t.Errorf("seq reads = %d, want %d continuation pages", io.Seq(), want)
	}
}

func TestSetStoreScan(t *testing.T) {
	st := NewSetStore(64)
	for i := 0; i < 20; i++ {
		st.Append(set.New(set.Elem(i), set.Elem(i+100)))
	}
	var io Counter
	var seen []SID
	st.Scan(&io, func(sid SID, s set.Set) bool {
		seen = append(seen, sid)
		return true
	})
	if len(seen) != 20 {
		t.Errorf("scanned %d sets", len(seen))
	}
	for i, sid := range seen {
		if sid != SID(i) {
			t.Errorf("scan order broken at %d: %d", i, sid)
		}
	}
	if io.Seq() != st.NumPages() {
		t.Errorf("scan charged %d seq pages, store has %d", io.Seq(), st.NumPages())
	}
	if io.Rand() != 0 {
		t.Errorf("scan charged %d random reads", io.Rand())
	}
}

func TestSetStoreScanEarlyStop(t *testing.T) {
	st := NewSetStore(64)
	for i := 0; i < 50; i++ {
		st.Append(set.New(set.Elem(i)))
	}
	var io Counter
	count := 0
	st.Scan(&io, func(sid SID, s set.Set) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Errorf("visited %d sets", count)
	}
	if io.Seq() > st.NumPages() {
		t.Errorf("early stop charged %d pages of %d", io.Seq(), st.NumPages())
	}
}

func TestSetStoreFetchOutOfRange(t *testing.T) {
	st := NewSetStore(0)
	st.Append(set.New(1))
	if _, err := st.Fetch(5, nil); err == nil {
		t.Error("out-of-range fetch succeeded")
	}
}

func TestLocationOutOfRange(t *testing.T) {
	// The sid directory of an empty store has no entry to resolve.
	st := NewSetStore(0)
	var io Counter
	if _, err := st.Fetch(5, &io); err == nil {
		t.Error("Fetch(5) on empty store succeeded")
	}
	if io.Rand() != 0 || io.Seq() != 0 {
		t.Errorf("failed lookup charged rand=%d seq=%d reads", io.Rand(), io.Seq())
	}
}

func TestSetStoreLocator(t *testing.T) {
	// The in-memory sid directory locates every record: each fetch returns
	// its own set and costs one random read, with no charge for the lookup.
	st := NewSetStore(0)
	sets := []set.Set{set.New(4, 5, 6), set.New(7), set.New(1, 2)}
	for _, s := range sets {
		st.Append(s)
	}
	for i := len(sets) - 1; i >= 0; i-- {
		var io Counter
		got, err := st.Fetch(SID(i), &io)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(sets[i]) {
			t.Errorf("Fetch(%d) = %v, want %v", i, got.Elems(), sets[i].Elems())
		}
		if io.Rand() != 1 || io.Seq() != 0 {
			t.Errorf("Fetch(%d) charged rand=%d seq=%d, want 1 random read", i, io.Rand(), io.Seq())
		}
	}
}

func TestAvgPagesPerSet(t *testing.T) {
	st := NewSetStore(0)
	if st.AvgPagesPerSet() != 0 {
		t.Error("empty store should report 0")
	}
	st.Append(set.New(1, 2, 3))
	if st.AvgPagesPerSet() <= 0 {
		t.Error("non-empty store should report positive pages per set")
	}
}

func TestSetEncodingRoundTripProperty(t *testing.T) {
	f := func(raw []uint32, shift uint8) bool {
		elems := make([]set.Elem, len(raw))
		for i, v := range raw {
			elems[i] = set.Elem(uint64(v) << (shift % 32))
		}
		want := set.New(elems...)
		st := NewSetStore(64)
		sid := st.Append(want)
		got, err := st.Fetch(sid, nil)
		if err != nil {
			return false
		}
		return got.Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRecordPages(t *testing.T) {
	st := NewSetStore(100)
	cases := []struct {
		off    uint64
		length uint64
		want   int64
	}{
		{0, 0, 1}, {0, 100, 1}, {0, 101, 2}, {50, 100, 2}, {99, 2, 2}, {100, 100, 1},
	}
	for _, c := range cases {
		if got := st.recordPages(c.off, c.length); got != c.want {
			t.Errorf("recordPages(%d, %d) = %d, want %d", c.off, c.length, got, c.want)
		}
	}
}

func TestManyRandomSetsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	st := NewSetStore(256)
	var originals []set.Set
	for i := 0; i < 500; i++ {
		n := rng.Intn(40)
		elems := make([]set.Elem, n)
		for j := range elems {
			elems[j] = set.Elem(rng.Uint64() % 1e9)
		}
		s := set.New(elems...)
		originals = append(originals, s)
		st.Append(s)
	}
	for i, want := range originals {
		got, err := st.Fetch(SID(i), nil)
		if err != nil {
			t.Fatalf("fetch %d: %v", i, err)
		}
		if !got.Equal(want) {
			t.Fatalf("set %d mismatched after round-trip", i)
		}
	}
}

func TestSetStoreDelete(t *testing.T) {
	st := NewSetStore(0)
	a := st.Append(set.New(1, 2))
	b := st.Append(set.New(3, 4))
	if st.Live() != 2 {
		t.Errorf("Live = %d", st.Live())
	}
	if err := st.Delete(a); err != nil {
		t.Fatal(err)
	}
	if st.Live() != 1 || !st.Deleted(a) || st.Deleted(b) {
		t.Error("tombstone bookkeeping wrong")
	}
	if _, err := st.Fetch(a, nil); err == nil {
		t.Error("fetch of deleted sid succeeded")
	}
	if err := st.Delete(a); err == nil {
		t.Error("double delete accepted")
	}
	if err := st.Delete(99); err == nil {
		t.Error("out-of-range delete accepted")
	}
	// Scan skips the tombstone but still visits b.
	var got []SID
	st.Scan(nil, func(sid SID, s set.Set) bool {
		got = append(got, sid)
		return true
	})
	if len(got) != 1 || got[0] != b {
		t.Errorf("scan after delete = %v", got)
	}
}

func TestPayloadAccounting(t *testing.T) {
	plain := NewSetStore(4096)
	padded := NewSetStoreWithPayload(4096, 100)
	s := set.New(1, 2, 3, 4, 5)
	plain.Append(s)
	padded.Append(s)
	if padded.Bytes() != plain.Bytes()+500 {
		t.Errorf("padded bytes %d vs plain %d", padded.Bytes(), plain.Bytes())
	}
	if padded.NumPages() < plain.NumPages() {
		t.Error("payload reduced page count")
	}
}

// TestPayloadAccountingBeyond4GiB appends one record whose payload alone is
// 2^32 bytes, the largest MaxPayloadPerElem allows on 4096 elements: the
// heap, its page count and a fetch's continuation pages must all count it.
func TestPayloadAccountingBeyond4GiB(t *testing.T) {
	elems := make([]set.Elem, 4096)
	for i := range elems {
		elems[i] = set.Elem(i)
	}
	st := NewSetStoreWithPayload(4096, MaxPayloadPerElem)
	sid := st.Append(set.New(elems...))
	const payload = 4096 * MaxPayloadPerElem
	if st.Bytes() < payload {
		t.Errorf("Bytes() = %d, want >= %d", st.Bytes(), int64(payload))
	}
	if want := int64(payload / 4096); st.NumPages() < want {
		t.Errorf("NumPages() = %d, want >= %d", st.NumPages(), want)
	}
	var io Counter
	if _, err := st.Fetch(sid, &io); err != nil {
		t.Fatal(err)
	}
	if io.Rand() != 1 || io.Seq() != st.NumPages()-1 {
		t.Errorf("fetch charged %d random + %d sequential pages, want 1 + %d", io.Rand(), io.Seq(), st.NumPages()-1)
	}
}

// TestSetStoreAccountingMatchesCodec pins the store's page accounting to
// the varint record codec it was defined by, on a Set1-like collection at
// the paper's ~110-byte payload per element and on edge sets: empty, one
// element, and elements at and above 2^63 (ten-byte varints).
func TestSetStoreAccountingMatchesCodec(t *testing.T) {
	sets, err := workload.Generate(workload.Set1Params(2000))
	if err != nil {
		t.Fatal(err)
	}
	const top = uint64(1) << 63
	sets = append(sets, set.New(), set.New(7), set.New(top), set.New(0, top, top+1, ^uint64(0)))
	checkAccountingMatchesCodec(t, DefaultPageSize, 110, sets)
	checkAccountingMatchesCodec(t, 64, 0, sets)
}
