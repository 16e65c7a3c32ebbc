package storage

import (
	"fmt"
	"math/bits"

	"repro/internal/set"
)

// SID is a set identifier: the dense index of a set within a collection.
type SID = uint32

// MaxPayloadPerElem bounds the accounted payload per element that callers
// and snapshots may ask for: 1 MiB, far above the paper's ~2 KB records.
const MaxPayloadPerElem = 1 << 20

// SetStore is the heap file holding the set collection. Sets are appended
// contiguously during build; fetching a set costs one random page access
// for the first page of the record plus sequential accesses for any
// continuation pages — the access pattern behind the paper's Figure 7 cost
// analysis. The per-sid directory (record offsets and lengths, set sizes)
// is held in memory, as the paper's cost model assumes of the sid index,
// so resolving a sid or reading a set's size costs no page reads.
//
// The paper's records are raw HTTP log strings (~2KB per set). The store
// keeps each appended set.Set as it was given and only accounts the heap:
// a record is as long as a varint element count plus varint gaps between
// the sorted elements would be, plus PayloadPerElem bytes per element for
// its original string form. So the simulated scan/fetch costs match the
// paper's record sizes without holding hundreds of megabytes of padding in
// memory, and a fetch hands back the stored set without decoding it.
type SetStore struct {
	pageSize int
	payload  int       // accounted-but-not-stored bytes per element
	sets     []set.Set // per-sid set, as appended
	virtOff  []uint64  // per-sid record offset in the accounted heap
	virtEnd  uint64    // accounted heap size
	deleted  map[SID]struct{}
}

// NewSetStore creates an empty store with the given page size (0 selects
// DefaultPageSize) and no per-element payload accounting.
func NewSetStore(pageSize int) *SetStore {
	return NewSetStoreWithPayload(pageSize, 0)
}

// NewSetStoreWithPayload creates an empty store that accounts I/O as if
// every element carried payload extra bytes (e.g. its log-string form).
// payload must lie in [0, MaxPayloadPerElem], as core.Options.Validate checks.
func NewSetStoreWithPayload(pageSize, payload int) *SetStore {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	return &SetStore{pageSize: pageSize, payload: payload}
}

// Append stores s and returns its sid. Sids are assigned densely in append
// order. The store retains s itself, not a copy: sets are immutable, so
// every later Fetch and Scan returns the same elements.
func (st *SetStore) Append(s set.Set) SID {
	sid := SID(len(st.sets))
	st.sets = append(st.sets, s)
	st.virtOff = append(st.virtOff, st.virtEnd)
	st.virtEnd += recordLen(s) + uint64(st.payload)*uint64(s.Len())
	return sid
}

// span returns sid's record [off, end) in the accounted heap: a record
// ends where the next one starts.
func (st *SetStore) span(sid SID) (off, end uint64) {
	if int(sid)+1 < len(st.virtOff) {
		return st.virtOff[sid], st.virtOff[sid+1]
	}
	return st.virtOff[sid], st.virtEnd
}

// recordLen returns the byte length of s's heap record before payload: a
// varint element count, then the first element and each later element's
// gap to its predecessor minus one, all as varints. Starting prev at
// 2^64−1 makes the first gap e−prev−1 wrap around to e itself.
func recordLen(s set.Set) uint64 {
	n := uvarintLen(uint64(s.Len()))
	prev := ^uint64(0)
	for _, e := range s.Elems() {
		n += uvarintLen(e - prev - 1)
		prev = e
	}
	return uint64(n)
}

// uvarintLen is the length of x's unsigned varint encoding: one byte per
// started group of 7 significant bits, and one byte for 0.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// SetLen returns the element count of sid's set from the in-memory sid
// directory, charging no I/O; ok is false when sid is out of range.
func (st *SetStore) SetLen(sid SID) (n int, ok bool) {
	if int(sid) >= len(st.sets) {
		return 0, false
	}
	return st.sets[sid].Len(), true
}

// Len returns the number of sets ever appended (deleted sets keep their
// sid; see Live).
func (st *SetStore) Len() int { return len(st.sets) }

// Live returns the number of non-deleted sets.
func (st *SetStore) Live() int { return len(st.sets) - len(st.deleted) }

// Delete tombstones sid: Fetch will fail for it and Scan will skip it. The
// record's pages remain allocated (heap compaction is out of scope, as in
// the paper's hash-file substrate).
func (st *SetStore) Delete(sid SID) error {
	if int(sid) >= len(st.sets) {
		return fmt.Errorf("storage: sid %d out of range (%d sets)", sid, len(st.sets))
	}
	if st.deleted == nil {
		st.deleted = make(map[SID]struct{})
	}
	if _, gone := st.deleted[sid]; gone {
		return fmt.Errorf("storage: sid %d already deleted", sid)
	}
	st.deleted[sid] = struct{}{}
	return nil
}

// Deleted reports whether sid has been tombstoned.
func (st *SetStore) Deleted(sid SID) bool {
	_, gone := st.deleted[sid]
	return gone
}

// Bytes returns the accounted heap size in bytes (including per-element
// payloads).
func (st *SetStore) Bytes() int64 { return int64(st.virtEnd) }

// NumPages returns the number of pages the accounted heap occupies.
func (st *SetStore) NumPages() int64 {
	return (int64(st.virtEnd) + int64(st.pageSize) - 1) / int64(st.pageSize)
}

// AvgPagesPerSet returns the paper's a parameter: average set size in pages.
func (st *SetStore) AvgPagesPerSet() float64 {
	if len(st.sets) == 0 {
		return 0
	}
	return float64(st.NumPages()) / float64(len(st.sets))
}

// recordPages returns how many pages the record [off, off+length) touches.
func (st *SetStore) recordPages(off, length uint64) int64 {
	if length == 0 {
		return 1
	}
	first := int64(off) / int64(st.pageSize)
	last := (int64(off) + int64(length) - 1) / int64(st.pageSize)
	return last - first + 1
}

// Fetch returns the set stored for sid, charging one random page read for
// the first page of its record and sequential reads for continuation
// pages to io (which may be nil). The sid resolves through the in-memory
// directory, and the set comes back as appended: no decode, no copy.
func (st *SetStore) Fetch(sid SID, io *Counter) (set.Set, error) {
	if int(sid) >= len(st.sets) {
		return set.Set{}, fmt.Errorf("storage: sid %d out of range (%d sets)", sid, len(st.sets))
	}
	if st.Deleted(sid) {
		return set.Set{}, fmt.Errorf("storage: sid %d deleted", sid)
	}
	if io != nil {
		off, end := st.span(sid)
		pages := st.recordPages(off, end-off)
		io.RecordRand(1)
		if pages > 1 {
			io.RecordSeq(pages - 1)
		}
	}
	return st.sets[sid], nil
}

// Scan iterates over all sets in sid order, charging a full sequential read
// of the heap to io (which may be nil). fn returning false stops early; the
// I/O charge is then prorated to the pages actually visited.
func (st *SetStore) Scan(io *Counter, fn func(sid SID, s set.Set) bool) {
	lastOff := uint64(0)
	for sid, s := range st.sets {
		_, lastOff = st.span(SID(sid))
		if st.Deleted(SID(sid)) {
			continue // tombstoned records are read past, not surfaced
		}
		if !fn(SID(sid), s) {
			break
		}
	}
	if io != nil {
		pages := (int64(lastOff) + int64(st.pageSize) - 1) / int64(st.pageSize)
		io.RecordSeq(pages)
	}
}
