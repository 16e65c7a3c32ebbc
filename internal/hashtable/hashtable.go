// Package hashtable implements the paged bucket hash tables underlying the
// filter indices (Section 4.1).
//
// Each Similarity Filter Index repetition hashes an r-bit sample of every
// embedded vector into a table of buckets holding set identifiers; a query
// probes one bucket per repetition. Buckets are chains of fixed-size pages
// (the paper's sidcount entries per bucket, with enough buckets that
// overflows are rare), and every page visited during a probe is charged as
// one random page read — hash indices are exactly the "readily available"
// ORDBMS primitive the paper builds on.
package hashtable

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"repro/internal/storage"
)

const noPage = ^uint32(0)

// entrySize is key (8 bytes) + sid (4 bytes).
const entrySize = 12

// pageHeader is next-page id (4 bytes) + entry count (2 bytes).
const pageHeader = 6

// MaxPageSize is the largest page size whose entry count still fits the
// header's 16-bit count field (65 535 entries).
const MaxPageSize = pageHeader + (1<<16)*entrySize - 1

// Options configures a Table.
type Options struct {
	// Buckets is the number of hash buckets. If zero it is derived from
	// ExpectedEntries so that the average bucket fits in one page.
	Buckets int
	// ExpectedEntries sizes the directory when Buckets is zero.
	ExpectedEntries int
}

// Table is one paged hash table: the unit the optimizer's budget counts
// ("a specified number K of hash tables", Section 5). It owns its pages, so
// distinct tables share no mutable state and can be filled concurrently.
type Table struct {
	pager   *storage.Pager
	first   []storage.PageID // per-bucket chain head
	last    []storage.PageID // per-bucket chain tail (insert point)
	entries int
	perPage int
}

// New creates an empty table whose pages hold pageSize bytes (0 selects
// storage.DefaultPageSize). A page must fit at least one entry and be at
// most MaxPageSize bytes.
func New(pageSize int, opt Options) (*Table, error) {
	pager := storage.NewPager(pageSize)
	perPage := (pager.PageSize() - pageHeader) / entrySize
	if perPage < 1 {
		return nil, fmt.Errorf("hashtable: page size %d too small", pager.PageSize())
	}
	if pager.PageSize() > MaxPageSize {
		return nil, fmt.Errorf("hashtable: page size %d too large (max %d)", pager.PageSize(), MaxPageSize)
	}
	nb := opt.Buckets
	if nb <= 0 {
		if opt.ExpectedEntries > 0 {
			nb = (opt.ExpectedEntries + perPage - 1) / perPage
		} else {
			nb = 64
		}
	}
	t := &Table{
		pager:   pager,
		first:   make([]storage.PageID, nb),
		last:    make([]storage.PageID, nb),
		perPage: perPage,
	}
	for i := range t.first {
		t.first[i] = storage.PageID(noPage)
		t.last[i] = storage.PageID(noPage)
	}
	return t, nil
}

// mix finalizes a key into a bucket index; keys produced by bit sampling
// are already hash-like but cheap extra mixing guards degenerate cases.
func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

func (t *Table) bucket(key uint64) int {
	return int(mix(key) % uint64(len(t.first)))
}

// Entries returns the number of stored (key, sid) pairs.
func (t *Table) Entries() int { return t.entries }

// Buckets returns the directory size.
func (t *Table) Buckets() int { return len(t.first) }

// Pages returns the number of bucket pages allocated.
func (t *Table) Pages() int { return t.pager.NumPages() }

func pageCount(p []byte) int { return int(p[4]) | int(p[5])<<8 }

func setPageCount(p []byte, n int) { p[4], p[5] = byte(n), byte(n>>8) }

func pageNext(p []byte) storage.PageID {
	return storage.PageID(uint32(p[0]) | uint32(p[1])<<8 | uint32(p[2])<<16 | uint32(p[3])<<24)
}

func setPageNext(p []byte, id storage.PageID) {
	p[0], p[1], p[2], p[3] = byte(id), byte(id>>8), byte(id>>16), byte(id>>24)
}

func pageEntry(p []byte, i int) (key uint64, sid storage.SID) {
	e := p[pageHeader+i*entrySize:][:entrySize]
	return binary.LittleEndian.Uint64(e), binary.LittleEndian.Uint32(e[8:])
}

func setPageEntry(p []byte, i int, key uint64, sid storage.SID) {
	off := pageHeader + i*entrySize
	for b := 0; b < 8; b++ {
		p[off+b] = byte(key >> (8 * b))
	}
	p[off+8], p[off+9], p[off+10], p[off+11] = byte(sid), byte(sid>>8), byte(sid>>16), byte(sid>>24)
}

// Insert stores (key, sid). Duplicate pairs are stored again; filter-index
// build never produces duplicates within one table.
func (t *Table) Insert(key uint64, sid storage.SID) {
	b := t.bucket(key)
	if t.last[b] == storage.PageID(noPage) {
		id := t.allocPage()
		t.first[b], t.last[b] = id, id
	}
	p := t.pager.MustPage(t.last[b])
	n := pageCount(p)
	if n == t.perPage {
		id := t.allocPage()
		setPageNext(p, id)
		t.last[b] = id
		p = t.pager.MustPage(id)
		n = 0
	}
	setPageEntry(p, n, key, sid)
	setPageCount(p, n+1)
	t.entries++
}

func (t *Table) allocPage() storage.PageID {
	id := t.pager.Alloc()
	p := t.pager.MustPage(id)
	setPageNext(p, storage.PageID(noPage))
	setPageCount(p, 0)
	return id
}

// Probe marks in the sid bitset marks (sid s is bit s%64 of word s/64) the
// sids whose stored key equals key — the collision the p_{r,l}(s) analysis
// assumes (two vectors collide iff their sampled bits agree), so other keys
// sharing the bucket are skipped. marks grows, zero-filled, to cover a sid
// past its end, so the result must be used in its place. Every chain page
// visited costs one random page read on io (which may be nil).
func (t *Table) Probe(key uint64, io *storage.Counter, marks []uint64) []uint64 {
	b := t.bucket(key)
	id := t.first[b]
	for id != storage.PageID(noPage) {
		if io != nil {
			io.RecordRand(1)
		}
		p := t.pager.MustPage(id)
		n := pageCount(p)
		for i := 0; i < n; i++ {
			if k, sid := pageEntry(p, i); k == key {
				w := int(sid >> 6)
				if w >= len(marks) {
					marks = append(marks, make([]uint64, w+1-len(marks))...)
				}
				marks[w] |= 1 << (sid & 63)
			}
		}
		id = pageNext(p)
	}
	return marks
}

// AppendMarked appends the sids marked in a Probe bitset to dst in
// ascending order.
func AppendMarked(dst []storage.SID, marks []uint64) []storage.SID {
	for i, w := range marks {
		for ; w != 0; w &= w - 1 {
			dst = append(dst, storage.SID(i<<6|bits.TrailingZeros64(w)))
		}
	}
	return dst
}

// Delete removes every (key, sid) pair from the table, compacting within
// each page (the last entry moves into the hole). It returns the number of
// entries removed — the dynamic maintenance the paper notes hash indices
// support.
func (t *Table) Delete(key uint64, sid storage.SID) int {
	b := t.bucket(key)
	removed := 0
	id := t.first[b]
	for id != storage.PageID(noPage) {
		p := t.pager.MustPage(id)
		n := pageCount(p)
		for i := 0; i < n; {
			k, s := pageEntry(p, i)
			if k == key && s == sid {
				// Move the page's last entry into the hole.
				lk, ls := pageEntry(p, n-1)
				setPageEntry(p, i, lk, ls)
				n--
				setPageCount(p, n)
				removed++
				continue // re-examine the moved entry
			}
			i++
		}
		id = pageNext(p)
	}
	t.entries -= removed
	return removed
}
