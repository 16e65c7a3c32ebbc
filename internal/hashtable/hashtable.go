// Package hashtable implements the bucket hash tables underlying the filter
// indices (Section 4.1).
//
// Each Similarity Filter Index repetition hashes an r-bit sample of every
// embedded vector into a table of buckets holding set identifiers; a query
// probes one bucket per repetition. The paper's buckets are chains of
// fixed-size pages (its sidcount entries per bucket, with enough buckets
// that overflows are rare), and every page visited during a probe is
// charged as one random page read — hash indices are exactly the "readily
// available" ORDBMS primitive the paper builds on.
//
// A Table keeps two layouts of the same entries. The simulated layout is
// the paper's: bucket mix(key) % Buckets() holds a chain of pages, kept
// only as a count of live entries per page. It decides what a probe is
// charged and how many pages exist. The physical layout is where entries
// live: a power-of-two array of slots chosen by the top bits of mix(key),
// each holding (key, sid, page) entries, so a probe scans only the slot
// its key hashes to. Both layouts see every Insert, Load and
// Delete, so the charges and page counts are those of a table that stored
// its pages.
package hashtable

import (
	"fmt"
	"math/bits"

	"repro/internal/storage"
)

// entrySize is the simulated size of an entry on a page: key (8 bytes) +
// sid (4 bytes).
const entrySize = 12

// pageHeader is the simulated page header: next-page id (4 bytes) + entry
// count (2 bytes).
const pageHeader = 6

// MaxPageSize is the largest page size whose entry count still fits the
// simulated header's 16-bit count field (65 535 entries).
const MaxPageSize = pageHeader + (1<<16)*entrySize - 1

// slotEntries is the least mean number of entries per physical slot at
// Options.ExpectedEntries; the slot count is the largest power of two that
// keeps the mean at or above it, so below twice it. A probe scans one
// slot, and each slot costs a slice header.
const slotEntries = 32

// Options configures a Table.
type Options struct {
	// Buckets is the number of hash buckets. If zero it is derived from
	// ExpectedEntries so that the average bucket fits in one page.
	Buckets int
	// ExpectedEntries sizes the directory when Buckets is zero, and the
	// physical slot array always.
	ExpectedEntries int
}

// entry is one stored (key, sid) pair and the simulated page it was
// charged to; the page index fits in what would be the struct's padding.
type entry struct {
	key  uint64
	sid  storage.SID
	page uint32
}

// bucket is one simulated chain: its length in pages and its tail page,
// the insert point.
type bucket struct {
	pages, tail uint32
}

// Table is one hash table: the unit the optimizer's budget counts ("a
// specified number K of hash tables", Section 5). It owns its entries and
// page counts, so distinct tables share no mutable state and can be filled
// concurrently.
//
// Slot i of the physical layout is two slices: loaded[i], the entries Load
// placed, a capacity-capped window of one arena; and added[i], those
// Inserted since (added is nil until the first Insert). A few keys can
// hold thousands of a table's entries, so an Insert that grew a loaded
// window would copy all of them.
type Table struct {
	loaded  [][]entry // indexed by mix(key) >> shift
	added   [][]entry
	shift   uint
	buckets []bucket // simulated chains, indexed by mix(key) % len(buckets)
	live    []uint16 // live entries per simulated page
	entries int
	perPage int
}

// New creates an empty table whose simulated pages hold pageSize bytes (0
// selects storage.DefaultPageSize). A page must fit at least one entry and
// be at most MaxPageSize bytes.
func New(pageSize int, opt Options) (*Table, error) {
	if pageSize <= 0 {
		pageSize = storage.DefaultPageSize
	}
	perPage := (pageSize - pageHeader) / entrySize
	if perPage < 1 {
		return nil, fmt.Errorf("hashtable: page size %d too small", pageSize)
	}
	if pageSize > MaxPageSize {
		return nil, fmt.Errorf("hashtable: page size %d too large (max %d)", pageSize, MaxPageSize)
	}
	nb := opt.Buckets
	if nb <= 0 {
		if opt.ExpectedEntries > 0 {
			nb = (opt.ExpectedEntries + perPage - 1) / perPage
		} else {
			nb = 64
		}
	}
	expected := opt.ExpectedEntries
	if expected <= 0 {
		expected = nb * perPage
	}
	slotBits := max(0, bits.Len(uint(expected/slotEntries))-1)
	return &Table{
		loaded:  make([][]entry, 1<<slotBits),
		shift:   uint(64 - slotBits),
		buckets: make([]bucket, nb),
		perPage: perPage,
	}, nil
}

// mix finalizes a key into the hash that picks its bucket (the residue
// modulo Buckets()) and its slot (the top bits); keys produced by bit
// sampling are already hash-like but cheap extra mixing guards degenerate
// cases.
func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Entries returns the number of stored (key, sid) pairs.
func (t *Table) Entries() int { return t.entries }

// Buckets returns the directory size.
func (t *Table) Buckets() int { return len(t.buckets) }

// Pages returns the number of simulated bucket pages allocated.
func (t *Table) Pages() int { return len(t.live) }

// charge appends one entry to the simulated chain of the bucket h selects
// and returns the page it lands on: the tail page, or a new one when the
// chain is empty or its tail is full. Pages are never freed.
func (t *Table) charge(h uint64) uint32 {
	b := &t.buckets[h%uint64(len(t.buckets))]
	if b.pages == 0 || int(t.live[b.tail]) == t.perPage {
		b.tail = uint32(len(t.live))
		b.pages++
		t.live = append(t.live, 0)
	}
	t.live[b.tail]++
	return b.tail
}

// Insert stores (key, sid). Duplicate pairs are stored again; filter-index
// build never produces duplicates within one table.
func (t *Table) Insert(key uint64, sid storage.SID) {
	if t.added == nil {
		t.added = make([][]entry, len(t.loaded))
	}
	h := mix(key)
	s := &t.added[h>>t.shift]
	*s = append(*s, entry{key: key, sid: sid, page: t.charge(h)})
	t.entries++
}

// Load stores the pairs (keys[i], sids[i]) exactly as Inserting them in
// order would, but moves the loaded entries into one new arena sized to
// hold them and the new pairs.
func (t *Table) Load(sids []storage.SID, keys []uint64) {
	counts := make([]int, len(t.loaded))
	total := len(keys)
	for i, s := range t.loaded {
		counts[i] = len(s)
		total += len(s)
	}
	for _, k := range keys {
		counts[mix(k)>>t.shift]++
	}
	arena := make([]entry, total)
	off := 0
	for i, n := range counts {
		t.loaded[i] = append(arena[off:off:off+n], t.loaded[i]...)
		off += n
	}
	for i, k := range keys {
		h := mix(k)
		s := &t.loaded[h>>t.shift]
		*s = append(*s, entry{key: k, sid: sids[i], page: t.charge(h)})
	}
	t.entries += len(keys)
}

// Probe marks in the sid bitset marks (sid s is bit s%64 of word s/64) the
// sids whose stored key equals key — the collision the p_{r,l}(s) analysis
// assumes (two vectors collide iff their sampled bits agree), so other keys
// sharing the bucket are skipped. marks grows, zero-filled, to cover a sid
// past its end, so the result must be used in its place. Every page of the
// key's bucket chain costs one random page read on io (which may be nil);
// an empty bucket costs none.
func (t *Table) Probe(key uint64, io *storage.Counter, marks []uint64) []uint64 {
	h := mix(key)
	if io != nil {
		io.RecordRand(int64(t.buckets[h%uint64(len(t.buckets))].pages))
	}
	i := h >> t.shift
	marks = mark(t.loaded[i], key, marks)
	if t.added != nil {
		marks = mark(t.added[i], key, marks)
	}
	return marks
}

// mark sets in marks the sids of the entries in s stored under key.
func mark(s []entry, key uint64, marks []uint64) []uint64 {
	for _, e := range s {
		if e.key == key {
			w := int(e.sid >> 6)
			if w >= len(marks) {
				marks = append(marks, make([]uint64, w+1-len(marks))...)
			}
			marks[w] |= 1 << (e.sid & 63)
		}
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

// Delete removes every (key, sid) pair from the table and returns the
// number removed — the dynamic maintenance the paper notes hash indices
// support. Each removal frees its place on the simulated page it was
// charged to; the page itself stays in its chain.
func (t *Table) Delete(key uint64, sid storage.SID) int {
	i := mix(key) >> t.shift
	removed := t.remove(&t.loaded[i], key, sid)
	if t.added != nil {
		removed += t.remove(&t.added[i], key, sid)
	}
	t.entries -= removed
	return removed
}

// remove deletes the (key, sid) entries of s, moving s's last entry into
// each hole, and frees their places on their simulated pages.
func (t *Table) remove(s *[]entry, key uint64, sid storage.SID) int {
	removed := 0
	for i := 0; i < len(*s); {
		if e := (*s)[i]; e.key == key && e.sid == sid {
			t.live[e.page]--
			last := len(*s) - 1
			(*s)[i] = (*s)[last]
			*s = (*s)[:last]
			removed++
			continue // re-examine the moved entry
		}
		i++
	}
	return removed
}
