package lsh

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/hashtable"
	"repro/internal/storage"
)

// BitSource yields individual bits of an embedded Hamming vector. Both
// bitvec.Vector and the lazy signature view in package embed satisfy it.
type BitSource interface {
	Bit(pos int) byte
}

// Complement adapts a BitSource to its bitwise complement — the q̄ view of
// Theorem 2 used by Dissimilarity Filter Index queries.
type Complement struct {
	Src BitSource
}

// Bit returns the flipped bit at pos.
func (c Complement) Bit(pos int) byte { return 1 - c.Src.Bit(pos) }

// GroupOptions configures a Group.
type GroupOptions struct {
	// Dim is the Hamming-space dimensionality D the samples draw from.
	Dim int
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
type Group struct {
	positions [][]int // L × R sampled bit positions
	tables    []*hashtable.Table
	r, l      int
	dim       int
}

// NewGroup creates an empty group with freshly sampled bit positions.
// Positions are sampled uniformly with replacement across tables (each
// table independently samples r distinct positions).
func NewGroup(pager *storage.Pager, opt GroupOptions) (*Group, error) {
	if opt.Dim < 1 {
		return nil, fmt.Errorf("lsh: dimension must be >= 1, got %d", opt.Dim)
	}
	if opt.R < 1 || opt.R > opt.Dim {
		return nil, fmt.Errorf("lsh: r must be in [1,%d], got %d", opt.Dim, opt.R)
	}
	if opt.L < 1 {
		return nil, fmt.Errorf("lsh: l must be >= 1, got %d", opt.L)
	}
	rng := opt.Rand
	if rng == nil {
		rng = rand.New(rand.NewSource(opt.Seed))
	}
	g := &Group{
		positions: make([][]int, opt.L),
		tables:    make([]*hashtable.Table, opt.L),
		r:         opt.R,
		l:         opt.L,
		dim:       opt.Dim,
	}
	for i := range g.positions {
		g.positions[i] = samplePositions(rng, opt.Dim, opt.R)
		t, err := hashtable.New(pager, hashtable.Options{ExpectedEntries: opt.ExpectedEntries})
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

// Positions returns the sampled positions of table i (not to be modified).
func (g *Group) Positions(i int) []int { return g.positions[i] }

// key folds the sampled bits of src under table i into a 64-bit key. For
// r <= 64 this is the exact sampled bit string; beyond that, consecutive
// 64-bit chunks are mixed together (a 2^-64 collision rate, far below the
// filter's intrinsic error).
func (g *Group) key(i int, src BitSource) uint64 {
	var key, chunk uint64
	nbits := 0
	for _, pos := range g.positions[i] {
		chunk = chunk<<1 | uint64(src.Bit(pos))
		nbits++
		if nbits == 64 {
			key = foldChunk(key, chunk)
			chunk, nbits = 0, 0
		}
	}
	if nbits > 0 {
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

// AppendKeys appends the L per-table keys of src to dst — the exact keys
// Insert would store and a probe would look up, in table order.
func (g *Group) AppendKeys(src BitSource, dst []uint64) []uint64 {
	for i := 0; i < g.l; i++ {
		dst = append(dst, g.key(i, src))
	}
	return dst
}

// Insert adds sid to every table, keyed by the sampled bits of src.
func (g *Group) Insert(src BitSource, sid storage.SID) {
	for i := range g.tables {
		g.tables[i].Insert(g.key(i, src), sid)
	}
}

// Delete removes sid from every table, keyed by the sampled bits of src
// (the same vector it was inserted with). It returns the number of table
// entries removed (at most one per table).
func (g *Group) Delete(src BitSource, sid storage.SID) int {
	removed := 0
	for i := range g.tables {
		removed += g.tables[i].Delete(g.key(i, src), sid)
	}
	return removed
}

// Query probes all L tables for src and returns the deduplicated union of
// bucket contents — SimVector for this group's threshold. Page reads are
// charged to io (which may be nil).
func (g *Group) Query(src BitSource, io *storage.Counter) []storage.SID {
	return g.QueryAppend(src, io, nil)
}

// QueryAppend is Query writing into dst's backing array: dst must be empty
// (length 0) but may carry capacity from a previous probe, which is reused
// instead of growing a fresh slice. The returned slice aliases dst's
// backing array and is only valid until the next reuse.
func (g *Group) QueryAppend(src BitSource, io *storage.Counter, dst []storage.SID) []storage.SID {
	raw := dst[:0:cap(dst)]
	for i := range g.tables {
		raw = g.tables[i].Probe(g.key(i, src), io, raw)
	}
	return dedupe(raw)
}

// dedupe sorts and deduplicates sids in place.
func dedupe(sids []storage.SID) []storage.SID {
	if len(sids) < 2 {
		return sids
	}
	slices.Sort(sids)
	out := sids[:1]
	for _, s := range sids[1:] {
		if s != out[len(out)-1] {
			out = append(out, s)
		}
	}
	return out
}

// Entries returns the total number of stored (key, sid) pairs across tables.
func (g *Group) Entries() int {
	n := 0
	for _, t := range g.tables {
		n += t.Entries()
	}
	return n
}
