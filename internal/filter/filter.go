// Package filter implements the two hash-based data structure primitives of
// Section 4: the Similarity Filter Index (SFI) and the Dissimilarity Filter
// Index (DFI). Both operate on embedded vectors in Hamming space, with
// thresholds expressed as Hamming similarities.
//
// SFI(s*) retrieves, with high probability, the sids of all vectors at
// Hamming similarity >= s* to a query vector: l hash tables each keyed on r
// sampled bits, r chosen so the collision curve p_{r,l} turns at s*.
//
// DFI(s*) retrieves the sids at Hamming similarity <= s*. By Theorem 2,
// s_H(h, q̄) = 1 - s_H(h, q), so a DFI is an SFI tuned to 1 - s* and probed
// with the complemented query vector. Data vectors are inserted unchanged.
//
// Vectors are passed as their min-hash signature coordinates; the sampled
// embedding bits are gathered from them (see lsh.Group).
package filter

import (
	"fmt"

	"repro/internal/ecc"
	"repro/internal/hashtable"
	"repro/internal/lsh"
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

// Options configures an Index.
type Options struct {
	// Kind selects SFI or DFI behaviour.
	Kind Kind
	// Threshold is s*, the Hamming-similarity turning point, in (0, 1).
	Threshold float64
	// Code is the embedding's error-correcting code and K its signature
	// length: the Hamming dimensionality is D = K·Code.Length().
	Code ecc.Code
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
	group     *lsh.Group
	r         int
}

// New creates an empty filter index whose tables hold pageSize-byte pages
// (0 selects storage.DefaultPageSize). For a DFI the internal group is
// tuned to the complementary threshold 1 - s*.
func New(pageSize int, opt Options) (*Index, error) {
	if opt.Threshold <= 0 || opt.Threshold >= 1 {
		return nil, fmt.Errorf("filter: threshold must be in (0,1), got %g", opt.Threshold)
	}
	turning := opt.Threshold
	if opt.Kind == Dissimilar {
		turning = 1 - opt.Threshold
	}
	r, err := lsh.SolveR(opt.Tables, turning)
	if err != nil {
		return nil, fmt.Errorf("filter: %w", err)
	}
	if opt.Code != nil && r > opt.K*opt.Code.Length() {
		r = opt.K * opt.Code.Length()
	}
	group, err := lsh.NewGroup(pageSize, lsh.GroupOptions{
		Code:            opt.Code,
		K:               opt.K,
		R:               r,
		L:               opt.Tables,
		Seed:            opt.Seed,
		ExpectedEntries: opt.ExpectedEntries,
	})
	if err != nil {
		return nil, fmt.Errorf("filter: %w", err)
	}
	return &Index{kind: opt.Kind, threshold: opt.Threshold, group: group, r: r}, nil
}

// Kind returns whether this is an SFI or DFI.
func (ix *Index) Kind() Kind { return ix.kind }

// Threshold returns the user-facing Hamming-similarity threshold s*.
func (ix *Index) Threshold() float64 { return ix.threshold }

// Tables returns l, the number of hash tables.
func (ix *Index) Tables() int { return ix.group.L() }

// SampledBits returns r, the bits sampled per table.
func (ix *Index) SampledBits() int { return ix.r }

// Positions returns the sampled bit positions of table i (not to be
// modified). Exposed so that determinism across rebuilds — the property
// snapshot loading depends on — is directly testable.
func (ix *Index) Positions(i int) []int { return ix.group.Positions(i) }

// flip is the bit complement a probe applies: none for an SFI, every bit
// for a DFI (Theorem 2's q̄).
func (ix *Index) flip() byte {
	if ix.kind == Dissimilar {
		return 1
	}
	return 0
}

// Insert adds a data vector (unchanged, for both kinds) under sid.
func (ix *Index) Insert(coords []uint64, sid storage.SID) {
	ix.group.Insert(coords, sid)
}

// Group exposes the underlying table group: its tables and insert keys
// (flip 0), for per-table population.
func (ix *Index) Group() *lsh.Group { return ix.group }

// AppendProbeKeys appends the per-table keys a Vector probe for query q
// would look up: the sampled bits of q for an SFI, of q̄ for a DFI.
func (ix *Index) AppendProbeKeys(q []uint64, dst []uint64) []uint64 {
	return ix.group.AppendKeys(q, ix.flip(), dst)
}

// Collides reports whether the data vector coords collides with a probe
// whose keys AppendProbeKeys produced — whether Vector would return it —
// stopping at the first table that matches.
func (ix *Index) Collides(coords []uint64, probeKeys []uint64) bool {
	return ix.group.Collides(coords, probeKeys)
}

// Delete removes a previously inserted data vector. The coordinates it was
// inserted with must be supplied.
func (ix *Index) Delete(coords []uint64, sid storage.SID) int {
	return ix.group.Delete(coords, sid)
}

// Probe marks SimVector(s*, q) for an SFI or DissimVector(s*, q) for a DFI
// — the sids the filter identifies for query vector q — into the sid
// bitset marks and returns it (grown if a sid lay past its end; see
// hashtable.Table.Probe). Bucket page reads are charged to io (which may
// be nil).
func (ix *Index) Probe(q []uint64, io *storage.Counter, marks []uint64) []uint64 {
	return ix.group.Query(q, ix.flip(), io, marks)
}

// Vector returns Probe's sids as an ascending list.
func (ix *Index) Vector(q []uint64, io *storage.Counter) []storage.SID {
	return hashtable.AppendMarked(nil, ix.Probe(q, io, nil))
}

// CaptureProb returns the probability that a vector at Hamming similarity
// sH to the query is returned by this index: p_{r,l}(sH) for an SFI,
// p_{r,l}(1-sH) for a DFI.
func (ix *Index) CaptureProb(sH float64) float64 {
	if ix.kind == Dissimilar {
		sH = 1 - sH
	}
	return lsh.CollisionProb(sH, ix.r, ix.group.L())
}

// Entries returns the total number of stored entries across tables.
func (ix *Index) Entries() int { return ix.group.Entries() }

// Pages returns the number of bucket pages allocated across tables.
func (ix *Index) Pages() int { return ix.group.Pages() }
