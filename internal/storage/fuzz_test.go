package storage

import (
	"encoding/binary"
	"testing"

	"repro/internal/set"
)

// refRecord is the varint record codec the store's heap accounting is
// defined by: a varint element count followed by varint deltas of the
// sorted elements (the first element as is, every later one as its gap to
// the previous minus one). The store no longer encodes anything; tests
// check that it accounts exactly the bytes this encoder would write.
func refRecord(s set.Set) []byte {
	var buf [binary.MaxVarintLen64]byte
	elems := s.Elems()
	n := binary.PutUvarint(buf[:], uint64(len(elems)))
	dst := append([]byte(nil), buf[:n]...)
	prev := uint64(0)
	for i, e := range elems {
		d := uint64(e) - prev
		if i > 0 {
			d-- // strictly increasing, so delta >= 1; store delta-1
		}
		n := binary.PutUvarint(buf[:], d)
		dst = append(dst, buf[:n]...)
		prev = uint64(e)
	}
	return dst
}

// checkAccountingMatchesCodec appends sets to a fresh store and asserts
// every I/O figure the store reports against a heap laid out from
// refRecord's lengths plus payload bytes per element: Bytes, NumPages,
// AvgPagesPerSet, each sid's Fetch charge (one random read for the first
// page, sequential reads for the rest) and the full Scan charge. Each
// fetched set must be the appended set itself.
func checkAccountingMatchesCodec(t *testing.T, pageSize, payload int, sets []set.Set) {
	t.Helper()
	st := NewSetStoreWithPayload(pageSize, payload)
	offs := make([]int64, len(sets)+1) // record i spans [offs[i], offs[i+1])
	for i, s := range sets {
		st.Append(s)
		offs[i+1] = offs[i] + int64(len(refRecord(s))+payload*s.Len())
	}
	end := offs[len(sets)]
	pages := (end + int64(pageSize) - 1) / int64(pageSize)
	if st.Bytes() != end || st.NumPages() != pages {
		t.Fatalf("store accounts %d bytes in %d pages; the codec's heap is %d bytes in %d pages", st.Bytes(), st.NumPages(), end, pages)
	}
	if len(sets) > 0 {
		if want := float64(pages) / float64(len(sets)); st.AvgPagesPerSet() != want {
			t.Fatalf("AvgPagesPerSet = %g, want %g", st.AvgPagesPerSet(), want)
		}
	}
	for i, s := range sets {
		wantPages := int64(1)
		if offs[i+1] > offs[i] {
			wantPages = (offs[i+1]-1)/int64(pageSize) - offs[i]/int64(pageSize) + 1
		}
		var io Counter
		got, err := st.Fetch(SID(i), &io)
		if err != nil {
			t.Fatalf("fetch %d: %v", i, err)
		}
		if io.Rand() != 1 || io.Seq() != wantPages-1 {
			t.Fatalf("fetch %d charged rand=%d seq=%d, want rand=1 seq=%d", i, io.Rand(), io.Seq(), wantPages-1)
		}
		if !got.Equal(s) || (s.Len() > 0 && &got.Elems()[0] != &s.Elems()[0]) {
			t.Fatalf("fetch %d returned %v, not the appended set %v", i, got.Elems(), s.Elems())
		}
	}
	var io Counter
	st.Scan(&io, func(SID, set.Set) bool { return true })
	if io.Rand() != 0 || io.Seq() != pages {
		t.Fatalf("scan charged rand=%d seq=%d, want seq=%d", io.Rand(), io.Seq(), pages)
	}
}

// FuzzSetEncoding checks, for arbitrary byte-derived element lists, that
// the store accounts each record at exactly the codec's length and that a
// fetch returns the appended set itself (also runs as a regular test over
// the seed corpus).
func FuzzSetEncoding(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{255, 255, 255, 255, 0, 0, 0, 0, 128})
	f.Fuzz(func(t *testing.T, raw []byte) {
		// Derive elements: consecutive 8-byte windows, variable magnitude.
		elems := make([]set.Elem, 0, len(raw))
		var acc uint64
		for i, b := range raw {
			acc = acc<<8 | uint64(b)
			if i%3 == 2 {
				elems = append(elems, set.Elem(acc))
			}
		}
		s := set.New(elems...)
		if got, want := recordLen(s), len(refRecord(s)); int(got) != want {
			t.Fatalf("recordLen(%v) = %d, codec writes %d bytes", s.Elems(), got, want)
		}
		// Twice, so the second record starts mid-page.
		checkAccountingMatchesCodec(t, 64, 0, []set.Set{s, s})
		checkAccountingMatchesCodec(t, 64, 3, []set.Set{s, s})
	})
}
