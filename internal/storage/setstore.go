package storage

import (
	"encoding/binary"
	"fmt"

	"repro/internal/set"
)

// SID is a set identifier: the dense index of a set within a collection.
type SID = uint32

// SetStore is the heap file holding the serialized set collection. Sets are
// appended contiguously during build; fetching a set costs one random page
// access for the first page of the record plus sequential accesses for any
// continuation pages — the access pattern behind the paper's Figure 7 cost
// analysis. The per-sid directory (offsets, lengths) is held in memory, as
// the paper's cost model assumes of the sid index, so resolving a sid costs
// no page reads.
//
// The paper's records are raw HTTP log strings (~2KB per set); this store
// keeps elements as compact varint-coded ids but can account I/O as if each
// element carried its original string payload (PayloadPerElem), so the
// simulated scan/fetch costs match the paper's record sizes without holding
// hundreds of megabytes of padding in memory.
type SetStore struct {
	pageSize int
	payload  int // accounted-but-not-stored bytes per element
	data     []byte
	offsets  []uint64 // per-sid record offset (physical heap)
	lengths  []uint32 // per-sid record length (physical heap)
	virtOff  []uint64 // per-sid record offset in the accounted heap
	virtLen  []uint32 // per-sid record length in the accounted heap
	virtEnd  uint64   // accounted heap size
	deleted  map[SID]struct{}
}

// NewSetStore creates an empty store with the given page size (0 selects
// DefaultPageSize) and no per-element payload accounting.
func NewSetStore(pageSize int) *SetStore {
	return NewSetStoreWithPayload(pageSize, 0)
}

// NewSetStoreWithPayload creates an empty store that accounts I/O as if
// every element carried payload extra bytes (e.g. its log-string form).
func NewSetStoreWithPayload(pageSize, payload int) *SetStore {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	if payload < 0 {
		payload = 0
	}
	return &SetStore{pageSize: pageSize, payload: payload}
}

// Append serializes s and returns its sid. Sids are assigned densely in
// append order.
func (st *SetStore) Append(s set.Set) SID {
	sid := SID(len(st.offsets))
	off := uint64(len(st.data))
	st.data = appendSet(st.data, s)
	physLen := uint32(uint64(len(st.data)) - off)
	st.offsets = append(st.offsets, off)
	st.lengths = append(st.lengths, physLen)
	vlen := physLen + uint32(st.payload*s.Len())
	st.virtOff = append(st.virtOff, st.virtEnd)
	st.virtLen = append(st.virtLen, vlen)
	st.virtEnd += uint64(vlen)
	return sid
}

// appendSet encodes a set as a varint element count followed by varint
// deltas of the sorted elements (+1 so deltas are never zero after the
// first, keeping the encoding self-checking).
func appendSet(dst []byte, s set.Set) []byte {
	var buf [binary.MaxVarintLen64]byte
	elems := s.Elems()
	n := binary.PutUvarint(buf[:], uint64(len(elems)))
	dst = append(dst, buf[:n]...)
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

// decodeSet parses a record produced by appendSet.
func decodeSet(b []byte) (set.Set, error) {
	cnt, n := binary.Uvarint(b)
	if n <= 0 {
		return set.Set{}, fmt.Errorf("storage: corrupt set header")
	}
	b = b[n:]
	// Every element takes at least one byte, so a count beyond the
	// remaining record length is corruption — checked before allocating.
	if cnt > uint64(len(b)) {
		return set.Set{}, fmt.Errorf("storage: corrupt set header: %d elements in %d bytes", cnt, len(b))
	}
	elems := make([]set.Elem, cnt)
	prev := uint64(0)
	for i := range elems {
		d, n := binary.Uvarint(b)
		if n <= 0 {
			return set.Set{}, fmt.Errorf("storage: corrupt set element %d", i)
		}
		b = b[n:]
		if i == 0 {
			prev = d
		} else {
			prev += d + 1
		}
		elems[i] = set.Elem(prev)
	}
	return set.FromSorted(elems), nil
}

// Len returns the number of sets ever appended (deleted sets keep their
// sid; see Live).
func (st *SetStore) Len() int { return len(st.offsets) }

// Live returns the number of non-deleted sets.
func (st *SetStore) Live() int { return len(st.offsets) - len(st.deleted) }

// Delete tombstones sid: Fetch will fail for it and Scan will skip it. The
// record's pages remain allocated (heap compaction is out of scope, as in
// the paper's hash-file substrate).
func (st *SetStore) Delete(sid SID) error {
	if int(sid) >= len(st.offsets) {
		return fmt.Errorf("storage: sid %d out of range (%d sets)", sid, len(st.offsets))
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
	if len(st.offsets) == 0 {
		return 0
	}
	return float64(st.NumPages()) / float64(len(st.offsets))
}

// recordPages returns how many pages the record [off, off+length) touches.
func (st *SetStore) recordPages(off uint64, length uint32) int64 {
	if length == 0 {
		return 1
	}
	first := int64(off) / int64(st.pageSize)
	last := (int64(off) + int64(length) - 1) / int64(st.pageSize)
	return last - first + 1
}

// Fetch retrieves and decodes the set for sid, charging one random page
// read for the first page and sequential reads for continuation pages to io
// (which may be nil). The sid resolves through the in-memory directory.
func (st *SetStore) Fetch(sid SID, io *Counter) (set.Set, error) {
	if int(sid) >= len(st.offsets) {
		return set.Set{}, fmt.Errorf("storage: sid %d out of range (%d sets)", sid, len(st.offsets))
	}
	if st.Deleted(sid) {
		return set.Set{}, fmt.Errorf("storage: sid %d deleted", sid)
	}
	off, length := st.offsets[sid], st.lengths[sid]
	if io != nil {
		pages := st.recordPages(st.virtOff[sid], st.virtLen[sid])
		io.RecordRand(1)
		if pages > 1 {
			io.RecordSeq(pages - 1)
		}
	}
	return decodeSet(st.data[off : off+uint64(length)])
}

// Scan iterates over all sets in sid order, charging a full sequential read
// of the heap to io (which may be nil). fn returning false stops early; the
// I/O charge is then prorated to the pages actually visited.
func (st *SetStore) Scan(io *Counter, fn func(sid SID, s set.Set) bool) error {
	lastOff := uint64(0)
	for sid := range st.offsets {
		lastOff = st.virtOff[sid] + uint64(st.virtLen[sid])
		if st.Deleted(SID(sid)) {
			continue // tombstoned records are read past, not surfaced
		}
		off, length := st.offsets[sid], st.lengths[sid]
		s, err := decodeSet(st.data[off : off+uint64(length)])
		if err != nil {
			return fmt.Errorf("storage: sid %d: %w", sid, err)
		}
		if !fn(SID(sid), s) {
			break
		}
	}
	if io != nil {
		pages := (int64(lastOff) + int64(st.pageSize) - 1) / int64(st.pageSize)
		io.RecordSeq(pages)
	}
	return nil
}
