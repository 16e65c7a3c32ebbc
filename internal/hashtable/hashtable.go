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
// the paper's: bucket mix(key) % Buckets() is a chain of pages, kept as a
// count of live entries per page, which decides what a probe is charged
// and how many pages exist. The physical layout holds the entries in
// power-of-two slots chosen by the top bits of mix(key). A build's Load
// (ascending sids into an empty table) seals it: a slot lists one run per
// key, an ascending sid list or, from 2·W sids on (W the words covering
// the sealed sids, where the two cost the same), a W-word sid bitmap,
// which a probe ORs in whole. Inserts, and any other Load, go to the
// delta: per-slot (key, sid, page) entries that a probe scans.
//
// A sealed entry keeps no page. A bucket's sealed entries were charged in
// ascending sid order, so those on its tail page at the seal are the ones
// from some sid on, which the bucket records with that tail. Pages are
// never freed and only the tail's count is read again (by charge), so a
// sealed Delete frees its place on the tail when its sid is that late and
// the tail has not moved since the seal, and otherwise changes nothing
// that is ever read.
package hashtable

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

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
// keeps the mean at or above it, so below twice it. A probe reads one
// slot, and each slot costs a run offset and a delta slice header.
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

// entry is one delta (key, sid) pair and the simulated page it was charged
// to; the page index fits in what would be the struct's padding.
type entry struct {
	key  uint64
	sid  storage.SID
	page uint32
}

// run is one key's sealed sids: lists[off:off+n], ascending, or, when n is
// bitmapRun, the bitmap bitmaps[off:off+words].
type run struct {
	key    uint64
	off, n uint32
}

const bitmapRun = ^uint32(0)

// bucket is one simulated chain: its length in pages and its tail page
// (the insert point); sealTail is its tail at the seal, which took the
// seal's entries in the bucket from sid sealFrom on.
type bucket struct {
	pages, tail, sealTail uint32
	sealFrom              storage.SID
}

// Table is one hash table: the unit the optimizer's budget counts ("a
// specified number K of hash tables", Section 5). It owns its entries and
// page counts, so distinct tables share no mutable state and can be filled
// concurrently.
//
// Slot i's sealed runs are runs[slots[i]:slots[i+1]], their sids in two
// arenas Load sizes to the runs; its delta is added[i] (added is nil until
// the first Insert).
type Table struct {
	slots   []uint32 // len = slot count + 1; indexed by mix(key) >> shift
	runs    []run
	lists   []storage.SID
	bitmaps []uint64
	words   int // W: the words of one run bitmap
	added   [][]entry
	shift   uint
	buckets []bucket // simulated chains, indexed by mix(key) % len(buckets)
	live    []uint16 // live entries per simulated page
	entries int
	perPage int
}

// CheckPageSize reports an error unless pageSize is 0 (the default) or
// fits one entry in at most MaxPageSize bytes.
func CheckPageSize(pageSize int) error {
	if pageSize != 0 && (pageSize < pageHeader+entrySize || pageSize > MaxPageSize) {
		return fmt.Errorf("hashtable: page size %d is neither 0 nor in [%d, %d]", pageSize, pageHeader+entrySize, MaxPageSize)
	}
	return nil
}

// New creates an empty table whose simulated pages hold pageSize bytes;
// see CheckPageSize for the sizes it accepts.
func New(pageSize int, opt Options) (*Table, error) {
	if err := CheckPageSize(pageSize); err != nil {
		return nil, err
	}
	if pageSize == 0 {
		pageSize = storage.DefaultPageSize
	}
	perPage := (pageSize - pageHeader) / entrySize
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
		slots:   make([]uint32, 1<<slotBits+1),
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

// charge appends one entry to the simulated chain of bucket b and returns
// the page it lands on: the tail page, or a new one when the chain is empty
// or its tail is full. Pages are never freed.
func (t *Table) charge(b *bucket) uint32 {
	if b.pages == 0 || int(t.live[b.tail]) == t.perPage {
		b.tail = uint32(len(t.live))
		b.pages++
		t.live = append(t.live, 0)
	}
	t.live[b.tail]++
	return b.tail
}

// Insert stores (key, sid) in the delta. Duplicate pairs are stored again;
// filter-index build never produces duplicates within one table.
func (t *Table) Insert(key uint64, sid storage.SID) {
	h := mix(key)
	if t.added == nil {
		t.added = make([][]entry, len(t.slots)-1)
	}
	t.added[h>>t.shift] = append(t.added[h>>t.shift], entry{key: key, sid: sid, page: t.charge(&t.buckets[h%uint64(len(t.buckets))])})
	t.entries++
}

// Load stores the pairs (keys[i], sids[i]) exactly as Inserting them in
// order would. Loading strictly ascending sids into an empty table, as a
// build does, seals them into runs; any other Load inserts them.
func (t *Table) Load(sids []storage.SID, keys []uint64) {
	if t.entries == 0 && len(sids) > 0 {
		sc := sealPool.Get().(*sealScratch)
		defer sealPool.Put(sc)
		if sc.number(keys, sids) {
			t.seal(sc, sids)
			return
		}
	}
	for i, k := range keys {
		t.Insert(k, sids[i])
	}
}

// sealScratch is a seal's working memory, pooled across seals.
type sealScratch struct {
	cells  []uint32  // key → run id + 1 (0: empty), open addressing on mix(key), at most a quarter full
	ids    []uint32  // per entry: its run id (runs are numbered by first appearance)
	keys   []uint64  // per run id: its key,
	counts []uint32  // its entries,
	fills  []runFill // where fill writes its next sid
	tail   []int     // per bucket: its entries, then those on its tail not yet found
}

var sealPool = sync.Pool{New: func() any { return &sealScratch{cells: make([]uint32, 64)} }}

// runFill is where fill writes a run's next sid: list place at (0, the
// spare place, for a bitmap run), and for a bitmap run (isMap 1) its first
// word in the bitmaps; bucket is the run's.
type runFill struct {
	at, word, isMap, bucket uint32
}

// seal replaces the sealed runs with the entries sc numbered, whose sids
// strictly ascend, and charges them in order.
func (t *Table) seal(sc *sealScratch, sids []storage.SID) {
	words := int(sids[len(sids)-1]>>6) + 1

	// Order the runs by slot, give each its arena place, and charge each
	// bucket its entries.
	clear(t.slots)
	for _, k := range sc.keys {
		t.slots[mix(k)>>t.shift]++
	}
	for s := 1; s < len(t.slots); s++ {
		t.slots[s] += t.slots[s-1]
	}
	t.runs, sc.fills = make([]run, len(sc.keys)), slices.Grow(sc.fills[:0], len(sc.keys))[:len(sc.keys)]
	sc.tail = append(sc.tail[:0], make([]int, len(t.buckets))...)
	var nlist, nmap uint32
	for id, n := range sc.counts {
		h := mix(sc.keys[id])
		r, f := run{key: sc.keys[id], off: nlist, n: n}, runFill{at: nlist + 1, bucket: uint32(h % uint64(len(t.buckets)))}
		if int(n) >= 2*words {
			r.off, r.n = nmap*uint32(words), bitmapRun
			f.at, f.word, f.isMap = 0, r.off, 1
			nmap++
		} else {
			nlist += n
		}
		sc.fills[id] = f
		sc.tail[f.bucket] += int(n)
		t.slots[h>>t.shift]-- // ends at the slot's start
		t.runs[t.slots[h>>t.shift]] = r
	}
	pending := 0 // buckets whose tail holds some but not all of their entries
	for j, n := range sc.tail {
		b := &t.buckets[j]
		on := t.chargeN(b, n)
		b.sealTail, b.sealFrom, sc.tail[j] = b.tail, 0, 0
		if on < n {
			sc.tail[j] = on
			pending++
		}
	}

	lists := make([]storage.SID, 1+nlist) // lists[0] is the spare place
	t.lists, t.bitmaps, t.words = lists[1:], make([]uint64, int(nmap)*words), words
	maps := t.bitmaps
	if nmap == 0 {
		maps = make([]uint64, words) // for the list runs' zero masks
	}
	fill(sc.ids, sc.fills, sids, lists, maps)
	t.entries = len(sids)

	// Walk back from the last entry to each pending bucket's first on its
	// tail; the other buckets' tails begin at sid 0.
	for i := len(sids) - 1; pending > 0; i-- {
		if b := sc.fills[sc.ids[i]].bucket; sc.tail[b] > 0 {
			if sc.tail[b]--; sc.tail[b] == 0 {
				t.buckets[b].sealFrom = sids[i]
				pending--
			}
		}
	}
}

// number hashes each key once, numbering its run at its first entry, and
// counts the entries of each run. It stops and reports false at a sid that
// does not ascend.
func (sc *sealScratch) number(keys []uint64, sids []storage.SID) bool {
	clear(sc.cells)
	sc.ids = slices.Grow(sc.ids[:0], len(keys))[:len(keys)]
	cells, ids, rkeys, counts := sc.cells, sc.ids, sc.keys[:0], sc.counts[:0]
	for i, k := range keys {
		if i > 0 && sids[i] <= sids[i-1] {
			return false
		}
		mask := uint64(len(cells) - 1)
		c := mix(k) & mask
		for cells[c] != 0 && rkeys[cells[c]-1] != k {
			c = (c + 1) & mask
		}
		id := cells[c] - 1
		if cells[c] == 0 {
			id = uint32(len(rkeys))
			rkeys, counts = append(rkeys, k), append(counts, 0)
			cells[c] = id + 1
			if 4*len(rkeys) > len(cells) {
				cells = make([]uint32, 2*len(cells))
				for j, k := range rkeys {
					c := mix(k) & uint64(len(cells)-1)
					for cells[c] != 0 {
						c = (c + 1) & uint64(len(cells)-1)
					}
					cells[c] = uint32(j + 1)
				}
				sc.cells = cells
			}
		}
		ids[i] = id
		counts[id]++
	}
	sc.keys, sc.counts = rkeys, counts
	return true
}

// fill writes each entry's sid to its run without branching on the run's
// kind: a list run's to its next place in lists, a bitmap run's to the
// spare place and as a bit into maps, where a list run ORs a zero mask.
func fill(ids []uint32, fills []runFill, sids, lists []storage.SID, maps []uint64) {
	for i, id := range ids {
		s, f := sids[i], &fills[id]
		lists[f.at] = s
		f.at += 1 - f.isMap
		maps[int(f.word)+int(s>>6)] |= uint64(f.isMap) << (s & 63)
	}
}

// chargeN charges n entries to bucket b as n charges would, a page at a
// time, and returns how many of them land on its last page.
func (t *Table) chargeN(b *bucket, n int) (k int) {
	for ; n > 0; n -= k {
		p := t.charge(b)
		k = min(n, 1+t.perPage-int(t.live[p]))
		t.live[p] += uint16(k - 1)
	}
	return k
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
	if r := t.find(h, key); r != nil && r.n == bitmapRun {
		marks = grow(marks, t.words)
		for j, w := range t.bitmaps[r.off:][:t.words] {
			marks[j] |= w
		}
	} else if r != nil && r.n > 0 {
		l := t.lists[r.off:][:r.n]
		marks = grow(marks, int(l[len(l)-1]>>6)+1)
		for _, s := range l {
			marks[s>>6] |= 1 << (s & 63)
		}
	}
	if t.added != nil {
		for _, e := range t.added[h>>t.shift] {
			if e.key == key {
				marks = grow(marks, int(e.sid>>6)+1)
				marks[e.sid>>6] |= 1 << (e.sid & 63)
			}
		}
	}
	return marks
}

// find returns the sealed run of key, whose hash is h, or nil.
func (t *Table) find(h, key uint64) *run {
	for j := t.slots[h>>t.shift]; j < t.slots[h>>t.shift+1]; j++ {
		if t.runs[j].key == key {
			return &t.runs[j]
		}
	}
	return nil
}

// grow returns marks extended, zero-filled, to at least n words.
func grow(marks []uint64, n int) []uint64 {
	if n > len(marks) {
		marks = append(marks, make([]uint64, n-len(marks))...)
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
// support. A delta removal frees its place on the simulated page it was
// charged to, a sealed one its place on the tail by the rule in the
// package comment; the page itself stays in its chain.
func (t *Table) Delete(key uint64, sid storage.SID) int {
	h := mix(key)
	removed := 0
	if r := t.find(h, key); r != nil && t.unseal(r, sid) {
		removed = 1
		if b := &t.buckets[h%uint64(len(t.buckets))]; sid >= b.sealFrom && b.tail == b.sealTail {
			t.live[b.tail]--
		}
	}
	if t.added != nil {
		// Move the slot's last entry into each hole, and re-examine it.
		s := &t.added[h>>t.shift]
		for i := 0; i < len(*s); {
			if e := (*s)[i]; e.key == key && e.sid == sid {
				t.live[e.page]--
				(*s)[i] = (*s)[len(*s)-1]
				*s = (*s)[:len(*s)-1]
				removed++
				continue
			}
			i++
		}
	}
	t.entries -= removed
	return removed
}

// unseal removes sid from run r and reports whether it was there.
func (t *Table) unseal(r *run, sid storage.SID) bool {
	if r.n == bitmapRun {
		w, bit := int(r.off)+int(sid>>6), uint64(1)<<(sid&63)
		if int(sid>>6) >= t.words || t.bitmaps[w]&bit == 0 {
			return false
		}
		t.bitmaps[w] &^= bit
		return true
	}
	l := t.lists[r.off:][:r.n]
	j, ok := slices.BinarySearch(l, sid)
	if ok {
		copy(l[j:], l[j+1:])
		r.n--
	}
	return ok
}
