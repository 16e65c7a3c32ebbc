// Package filter implements the Hamming-space half of the paper: the
// embedding of min-hash signatures into Hamming space (Section 3.2), the
// filter function p_{r,l} of Section 4.1, and the Similarity and
// Dissimilarity Filter Indices (SFI, DFI) of Section 4. Thresholds are
// Hamming similarities.
//
// The embedding encodes each b-bit truncated signature coordinate with a
// linear code of length m, given by its generator columns: codeword bit x
// of message v is parity(v & Column(x)). The Hadamard code's column x is x
// itself, for x in [0, 2^b); for u != w, parity((u^w) & x) is 1 on exactly
// half of all x, so distinct codewords are all at distance m/2. Hence k
// coordinates agreeing in s·k places map to D = m·k bits at expected
// Hamming distance (1-s)/2·D, i.e. Hamming similarity (1+s)/2 (Theorem 1).
//
// SFI(s*) retrieves, with high probability, the sids of all vectors at
// Hamming similarity >= s* to a query vector: l hash tables each keyed on r
// sampled bits, r chosen so the collision curve p_{r,l} turns at s*.
//
// DFI(s*) retrieves the sids at Hamming similarity <= s*. By Theorem 2,
// s_H(h, q̄) = 1 - s_H(h, q), so a DFI is an SFI tuned to 1 - s* and probed
// with the complemented query vector. Data vectors are inserted unchanged.
//
// Vectors are never materialised. A vector is given by its min-hash
// signature coordinates, and each table's sampled positions are compiled at
// construction into taps: position p reads codeword bit p%m of coordinate
// p/m, which for a linear code is the parity of the coordinate masked by
// the code's column p%m. A key is a gather of r such parities.
package filter

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sort"

	"repro/internal/hashtable"
	"repro/internal/storage"
)

// Kind distinguishes the two filter index primitives.
type Kind int

const (
	// Similar marks an SFI.
	Similar Kind = iota
	// Dissimilar marks a DFI.
	Dissimilar
)

// String returns "SFI" or "DFI".
func (k Kind) String() string {
	if k == Dissimilar {
		return "DFI"
	}
	return "SFI"
}

// ProbeSimilarity returns the Hamming similarity at which an index of this
// kind sees a pair at Hamming similarity sH: sH for an SFI, 1 - sH for a
// DFI, which probes the complemented query (Theorem 2). It places a DFI's
// turning point and prices its collisions.
func (k Kind) ProbeSimilarity(sH float64) float64 {
	if k == Dissimilar {
		return 1 - sH
	}
	return sH
}

// Options configures an Index.
type Options struct {
	// Kind selects SFI or DFI behaviour.
	Kind Kind
	// Threshold is s*, the Hamming-similarity turning point, in (0, 1).
	Threshold float64
	// Code is the embedding's error-correcting code and K its signature
	// length: the Hamming dimensionality is D = K·Code.Length().
	Code Code
	K    int
	// Tables is l, the number of hash tables allocated to this index.
	Tables int
	// Seed reproduces the sampled bit positions.
	Seed int64
	// ExpectedEntries sizes each table's bucket directory.
	ExpectedEntries int
}

// Index is one filter index: an SFI or DFI at a fixed Hamming-similarity
// threshold. Build with New, populate with Insert, probe with Probe (or
// Vector for an ascending sid list).
type Index struct {
	kind      Kind
	threshold float64 // the user-facing s*
	r, m      int     // bits sampled per table; codeword length
	taps      [][]tap // l × r compiled sampled positions, in position order
	tables    []*hashtable.Table
}

// tap is one sampled position p, compiled: codeword bit p%m of signature
// coordinate p/m, which is the parity of the coordinate under mask, the
// code's column p%m.
type tap struct {
	mask  uint64
	coord int32
	bit   int32
}

// New creates an empty filter index whose tables are charged as
// pageSize-byte pages (0 selects storage.DefaultPageSize). r is solved so
// the collision curve turns at s* — for a DFI, at the complementary 1 - s*
// — and clamped to the dimension.
func New(pageSize int, opt Options) (*Index, error) {
	if !(opt.Threshold > 0 && opt.Threshold < 1) {
		return nil, fmt.Errorf("filter: threshold must be in (0,1), got %g", opt.Threshold)
	}
	r, err := SolveR(opt.Tables, opt.Kind.ProbeSimilarity(opt.Threshold))
	if err != nil {
		return nil, err
	}
	if opt.Code != nil && r > opt.K*opt.Code.Length() {
		r = opt.K * opt.Code.Length()
	}
	return newIndex(pageSize, opt, r)
}

// newIndex creates an empty index sampling r bits per table, whatever the
// threshold. Each table independently samples r distinct positions.
func newIndex(pageSize int, opt Options, r int) (*Index, error) {
	if opt.Code == nil {
		return nil, fmt.Errorf("filter: no code")
	}
	if opt.K < 1 {
		return nil, fmt.Errorf("filter: k must be >= 1, got %d", opt.K)
	}
	m := opt.Code.Length()
	dim := opt.K * m
	if r < 1 || r > dim {
		return nil, fmt.Errorf("filter: r must be in [1,%d], got %d", dim, r)
	}
	if opt.Tables < 1 {
		return nil, fmt.Errorf("filter: l must be >= 1, got %d", opt.Tables)
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	ix := &Index{
		kind:      opt.Kind,
		threshold: opt.Threshold,
		r:         r,
		m:         m,
		taps:      make([][]tap, opt.Tables),
		tables:    make([]*hashtable.Table, opt.Tables),
	}
	for i := range ix.taps {
		positions := samplePositions(rng, dim, r)
		ix.taps[i] = make([]tap, len(positions))
		for j, p := range positions {
			ix.taps[i][j] = tap{mask: opt.Code.Column(p % m), coord: int32(p / m), bit: int32(p % m)}
		}
		t, err := hashtable.New(pageSize, hashtable.Options{ExpectedEntries: opt.ExpectedEntries})
		if err != nil {
			return nil, fmt.Errorf("filter: %w", err)
		}
		ix.tables[i] = t
	}
	return ix, nil
}

// samplePositions draws r distinct positions from [0, dim) and returns them
// sorted (order within a table is irrelevant to collisions; sorting makes
// key extraction cache-friendly and the index reproducible).
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

// Kind returns whether this is an SFI or DFI.
func (ix *Index) Kind() Kind { return ix.kind }

// Threshold returns the user-facing Hamming-similarity threshold s*.
func (ix *Index) Threshold() float64 { return ix.threshold }

// Tables returns l, the number of hash tables.
func (ix *Index) Tables() int { return len(ix.tables) }

// SampledBits returns r, the bits sampled per table.
func (ix *Index) SampledBits() int { return ix.r }

// Positions returns the sampled bit positions of table i, ascending.
// Exposed so that determinism across rebuilds — the property snapshot
// loading depends on — is directly testable.
func (ix *Index) Positions(i int) []int {
	out := make([]int, len(ix.taps[i]))
	for j, t := range ix.taps[i] {
		out[j] = int(t.coord)*ix.m + int(t.bit)
	}
	return out
}

// flip is the bit complement a probe applies: none for an SFI, every bit
// for a DFI (Theorem 2's q̄).
func (ix *Index) flip() byte {
	if ix.kind == Dissimilar {
		return 1
	}
	return 0
}

// Key folds the sampled bits of the vector with signature coordinates
// coords under table i into a 64-bit key; flip = 1 complements every bit
// (the q̄ view a DFI probe reads). For r <= 64 this is the exact sampled
// bit string; beyond that, consecutive 64-bit chunks are mixed together (a
// 2^-64 collision rate, far below the filter's intrinsic error).
func (ix *Index) Key(i int, coords []uint64, flip byte) uint64 {
	f := uint64(flip)
	var key, chunk uint64
	nbits := 0
	for _, t := range ix.taps[i] {
		chunk = chunk<<1 | (uint64(bits.OnesCount64(coords[t.coord]&t.mask)&1) ^ f)
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

// Table returns hash table i, whose entries are keyed by Key(i, coords, 0).
// Tables share no mutable state, so distinct tables may be filled from
// different goroutines.
func (ix *Index) Table(i int) *hashtable.Table { return ix.tables[i] }

// Insert adds a data vector (unchanged, for both kinds) under sid.
func (ix *Index) Insert(coords []uint64, sid storage.SID) {
	for i, t := range ix.tables {
		t.Insert(ix.Key(i, coords, 0), sid)
	}
}

// Delete removes a previously inserted data vector; the coordinates it was
// inserted with must be supplied. It returns the number of table entries
// removed: every stored (key, sid) pair that matches, so one per table for
// a vector inserted once.
func (ix *Index) Delete(coords []uint64, sid storage.SID) int {
	removed := 0
	for i, t := range ix.tables {
		removed += t.Delete(ix.Key(i, coords, 0), sid)
	}
	return removed
}

// AppendProbeKeys appends the per-table keys a Vector probe for query q
// would look up: the sampled bits of q for an SFI, of q̄ for a DFI.
func (ix *Index) AppendProbeKeys(q []uint64, dst []uint64) []uint64 {
	flip := ix.flip()
	for i := range ix.tables {
		dst = append(dst, ix.Key(i, q, flip))
	}
	return dst
}

// Collides reports whether the data vector coords collides with a probe
// whose keys AppendProbeKeys produced — whether Vector would return it —
// without touching bucket pages. It stops at the first table that matches.
func (ix *Index) Collides(coords []uint64, probeKeys []uint64) bool {
	for i, k := range probeKeys {
		if ix.Key(i, coords, 0) == k {
			return true
		}
	}
	return false
}

// Probe marks SimVector(s*, q) for an SFI or DissimVector(s*, q) for a DFI
// — the union over tables of the bucket q's key selects — into the sid
// bitset marks and returns it (grown if a sid lay past its end; see
// hashtable.Table.Probe). Bucket page reads are charged to io (which may
// be nil).
func (ix *Index) Probe(q []uint64, io *storage.Counter, marks []uint64) []uint64 {
	flip := ix.flip()
	for i, t := range ix.tables {
		marks = t.Probe(ix.Key(i, q, flip), io, marks)
	}
	return marks
}

// Vector returns Probe's sids as an ascending list.
func (ix *Index) Vector(q []uint64, io *storage.Counter) []storage.SID {
	return hashtable.AppendMarked(nil, ix.Probe(q, io, nil))
}

// Entries returns the total number of stored entries across tables.
func (ix *Index) Entries() int {
	n := 0
	for _, t := range ix.tables {
		n += t.Entries()
	}
	return n
}

// Pages returns the number of bucket pages allocated across tables.
func (ix *Index) Pages() int {
	n := 0
	for _, t := range ix.tables {
		n += t.Pages()
	}
	return n
}
