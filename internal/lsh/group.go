package lsh

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/ecc"
	"repro/internal/hashtable"
	"repro/internal/storage"
)

// GroupOptions configures a Group.
type GroupOptions struct {
	// Code is the error-correcting code of the embedding: position p of the
	// D = K·m dimensional Hamming space is bit p%m of the codeword of
	// signature coordinate p/m, where m = Code.Length().
	Code ecc.Code
	// K is the number of signature coordinates the embedding spans.
	K int
	// R is the number of bits sampled per table.
	R int
	// L is the number of tables.
	L int
	// Seed drives position sampling; the same seed reproduces the group.
	Seed int64
	// Rand, if non-nil, supplies position sampling directly and Seed is
	// ignored — the injection point for callers threading one random
	// stream through a pipeline. The rng is consumed during construction
	// and not retained; two rngs in the same state yield identical groups.
	Rand *rand.Rand
	// ExpectedEntries sizes each table's bucket directory.
	ExpectedEntries int
}

// Group is a family of L bit-sampling hash tables sharing a sampled-bit
// scheme: the data structure behind one filter index. Building inserts
// every vector into all L tables; a query probes one bucket per table and
// unions the results (the SimVector of Section 4.1).
//
// Vectors are never materialised. A vector is given by its signature
// coordinates (only the low MessageBits bits of each are read), and each
// table's sampled positions are compiled at construction into the taps
// they read, so a key is a gather of r codeword bits.
type Group struct {
	taps   [][]tap // L × R compiled sampled positions, in position order
	tables []*hashtable.Table
	code   ecc.Code
	r, l   int
}

// tap is one sampled position p, compiled: codeword bit p%m of signature
// coordinate p/m.
type tap struct {
	coord int32
	bit   int32
}

// NewGroup creates an empty group with freshly sampled bit positions whose
// tables hold pageSize-byte pages (0 selects storage.DefaultPageSize).
// Positions are sampled uniformly with replacement across tables (each
// table independently samples r distinct positions).
func NewGroup(pageSize int, opt GroupOptions) (*Group, error) {
	if opt.Code == nil {
		return nil, fmt.Errorf("lsh: no code")
	}
	if opt.K < 1 {
		return nil, fmt.Errorf("lsh: k must be >= 1, got %d", opt.K)
	}
	m := opt.Code.Length()
	dim := opt.K * m
	if opt.R < 1 || opt.R > dim {
		return nil, fmt.Errorf("lsh: r must be in [1,%d], got %d", dim, opt.R)
	}
	if opt.L < 1 {
		return nil, fmt.Errorf("lsh: l must be >= 1, got %d", opt.L)
	}
	rng := opt.Rand
	if rng == nil {
		rng = rand.New(rand.NewSource(opt.Seed))
	}
	g := &Group{
		taps:   make([][]tap, opt.L),
		tables: make([]*hashtable.Table, opt.L),
		code:   opt.Code,
		r:      opt.R,
		l:      opt.L,
	}
	for i := range g.taps {
		positions := samplePositions(rng, dim, opt.R)
		g.taps[i] = make([]tap, len(positions))
		for j, p := range positions {
			g.taps[i][j] = tap{coord: int32(p / m), bit: int32(p % m)}
		}
		t, err := hashtable.New(pageSize, hashtable.Options{ExpectedEntries: opt.ExpectedEntries})
		if err != nil {
			return nil, err
		}
		g.tables[i] = t
	}
	return g, nil
}

// samplePositions draws r distinct positions from [0, dim) and returns them
// sorted (order within a table is irrelevant to collisions; sorting makes
// key extraction cache-friendly and the group reproducible).
func samplePositions(rng *rand.Rand, dim, r int) []int {
	if r >= dim {
		all := make([]int, dim)
		for i := range all {
			all[i] = i
		}
		return all
	}
	seen := make(map[int]struct{}, r)
	out := make([]int, 0, r)
	for len(out) < r {
		p := rng.Intn(dim)
		if _, dup := seen[p]; dup {
			continue
		}
		seen[p] = struct{}{}
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// R returns the bits sampled per table.
func (g *Group) R() int { return g.r }

// L returns the number of tables.
func (g *Group) L() int { return g.l }

// Positions returns the sampled positions of table i, ascending.
func (g *Group) Positions(i int) []int {
	m := g.code.Length()
	out := make([]int, len(g.taps[i]))
	for j, t := range g.taps[i] {
		out[j] = int(t.coord)*m + int(t.bit)
	}
	return out
}

// Key folds the sampled bits of the vector with signature coordinates
// coords under table i into a 64-bit key; flip = 1 complements every bit
// (the q̄ view of Theorem 2 that DFI probes read). For r <= 64 this is the
// exact sampled bit string; beyond that, consecutive 64-bit chunks are
// mixed together (a 2^-64 collision rate, far below the filter's intrinsic
// error).
func (g *Group) Key(i int, coords []uint64, flip byte) uint64 {
	var key, chunk uint64
	nbits := 0
	for _, t := range g.taps[i] {
		chunk = chunk<<1 | uint64(g.code.Bit(coords[t.coord], int(t.bit))^flip)
		nbits++
		if nbits == 64 {
			key = foldChunk(key, chunk)
			chunk, nbits = 0, 0
		}
	}
	switch {
	case nbits >= 59:
		// nbits<<57 would overlap the chunk's own top bits and mask up to
		// six sampled bits: fold the length separately.
		key = foldChunk(foldChunk(key, chunk), uint64(nbits))
	case nbits > 0:
		// Include the chunk length so trailing zeros are unambiguous.
		key = foldChunk(key, chunk|uint64(nbits)<<57)
	}
	return key
}

func foldChunk(acc, chunk uint64) uint64 {
	acc ^= chunk
	acc *= 0x9e3779b97f4a7c15
	acc ^= acc >> 29
	return acc
}

// AppendKeys appends the L per-table keys of the vector with coordinates
// coords (complemented when flip is 1) to dst — the exact keys Insert
// would store and a probe would look up, in table order.
func (g *Group) AppendKeys(coords []uint64, flip byte, dst []uint64) []uint64 {
	for i := 0; i < g.l; i++ {
		dst = append(dst, g.Key(i, coords, flip))
	}
	return dst
}

// Collides reports whether the vector with coordinates coords would be
// stored under keys[i] in some table i — the collision test a probe with
// those keys performs, without touching bucket pages. It stops at the
// first hit.
func (g *Group) Collides(coords []uint64, keys []uint64) bool {
	for i, k := range keys {
		if g.Key(i, coords, 0) == k {
			return true
		}
	}
	return false
}

// Insert adds sid to every table, keyed by the sampled bits of coords.
func (g *Group) Insert(coords []uint64, sid storage.SID) {
	for i, t := range g.tables {
		t.Insert(g.Key(i, coords, 0), sid)
	}
}

// Table returns hash table i. Tables share no mutable state, so distinct
// tables may be filled from different goroutines.
func (g *Group) Table(i int) *hashtable.Table { return g.tables[i] }

// Delete removes sid from every table, keyed by the sampled bits of coords
// (the same vector it was inserted with). It returns the number of table
// entries removed (at most one per table).
func (g *Group) Delete(coords []uint64, sid storage.SID) int {
	removed := 0
	for i := range g.tables {
		removed += g.tables[i].Delete(g.Key(i, coords, 0), sid)
	}
	return removed
}

// Query probes all L tables for the vector with coordinates coords
// (complemented when flip is 1) and marks the union of bucket contents —
// SimVector for this group's threshold — into the sid bitset marks, which
// it returns grown as hashtable.Table.Probe grows it. Page reads are
// charged to io (which may be nil).
func (g *Group) Query(coords []uint64, flip byte, io *storage.Counter, marks []uint64) []uint64 {
	for i, t := range g.tables {
		marks = t.Probe(g.Key(i, coords, flip), io, marks)
	}
	return marks
}

// Entries returns the total number of stored (key, sid) pairs across tables.
func (g *Group) Entries() int {
	n := 0
	for _, t := range g.tables {
		n += t.Entries()
	}
	return n
}

// Pages returns the number of bucket pages allocated across tables.
func (g *Group) Pages() int {
	n := 0
	for _, t := range g.tables {
		n += t.Pages()
	}
	return n
}
