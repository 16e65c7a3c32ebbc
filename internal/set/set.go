// Package set provides the set representation used throughout the library.
//
// Sets hold interned element identifiers (see Dictionary) kept sorted and
// deduplicated, which makes exact Jaccard similarity a linear merge. A query
// verified against many sets loads it once into a Bitmap instead, which
// counts each overlap with one bit test per element of the other set. The
// element universe is not assumed to be known in advance: a Dictionary grows
// as new elements are observed, matching the paper's requirement that no
// a-priori universe or set-cardinality knowledge is needed.
package set

import (
	"fmt"
	"slices"
	"sort"
)

// Elem is an interned element identifier. Identifiers are dense, assigned in
// first-seen order by a Dictionary.
type Elem = uint64

// Set is a sorted, duplicate-free collection of interned element ids.
//
// The zero value is the empty set and is ready to use.
type Set struct {
	elems []Elem
}

// New builds a Set from the given elements. The input is copied, sorted and
// deduplicated; it may be in any order and contain repeats.
func New(elems ...Elem) Set {
	if len(elems) == 0 {
		return Set{}
	}
	cp := make([]Elem, len(elems))
	copy(cp, elems)
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	out := cp[:1]
	for _, e := range cp[1:] {
		if e != out[len(out)-1] {
			out = append(out, e)
		}
	}
	return Set{elems: out}
}

// FromSorted wraps an already sorted, duplicate-free slice without copying.
// It is the caller's responsibility that the invariant holds; Validate can
// check it. Use this on hot paths (e.g. loading a stored collection).
func FromSorted(elems []Elem) Set {
	return Set{elems: elems}
}

// Validate reports an error if the receiver violates the sorted-unique
// invariant. It is intended for tests and for checking FromSorted inputs.
func (s Set) Validate() error {
	for i := 1; i < len(s.elems); i++ {
		if s.elems[i-1] >= s.elems[i] {
			return fmt.Errorf("set: elements out of order at index %d: %d >= %d", i, s.elems[i-1], s.elems[i])
		}
	}
	return nil
}

// Len returns the number of elements.
func (s Set) Len() int { return len(s.elems) }

// IsEmpty reports whether the set has no elements.
func (s Set) IsEmpty() bool { return len(s.elems) == 0 }

// Elems returns the underlying sorted element slice. The caller must not
// modify it.
func (s Set) Elems() []Elem { return s.elems }

// Contains reports whether e is a member of the set.
func (s Set) Contains(e Elem) bool {
	i := sort.Search(len(s.elems), func(i int) bool { return s.elems[i] >= e })
	return i < len(s.elems) && s.elems[i] == e
}

// Equal reports whether two sets have identical membership.
func (s Set) Equal(t Set) bool {
	if len(s.elems) != len(t.elems) {
		return false
	}
	for i, e := range s.elems {
		if t.elems[i] != e {
			return false
		}
	}
	return true
}

// IntersectionSize returns |s ∩ t| by merging the two sorted slices.
func (s Set) IntersectionSize(t Set) int {
	a, b := s.elems, t.elems
	// Walk the shorter set with binary search when sizes are very skewed;
	// otherwise a plain merge is fastest.
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return 0
	}
	if len(b) >= 32*len(a) {
		n := 0
		lo := 0
		for _, e := range a {
			i := lo + sort.Search(len(b)-lo, func(i int) bool { return b[lo+i] >= e })
			if i < len(b) && b[i] == e {
				n++
				lo = i + 1
			} else {
				lo = i
			}
			if lo >= len(b) {
				break
			}
		}
		return n
	}
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			n++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return n
}

// UnionSize returns |s ∪ t|.
func (s Set) UnionSize(t Set) int {
	return len(s.elems) + len(t.elems) - s.IntersectionSize(t)
}

// Intersection returns s ∩ t as a new set.
func (s Set) Intersection(t Set) Set {
	a, b := s.elems, t.elems
	out := make([]Elem, 0, min(len(a), len(b)))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return Set{elems: out}
}

// Union returns s ∪ t as a new set.
func (s Set) Union(t Set) Set {
	a, b := s.elems, t.elems
	out := make([]Elem, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		default:
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return Set{elems: out}
}

// Jaccard returns sim(s, t) = |s ∩ t| / |s ∪ t| (Definition 1). Two empty
// sets are defined to have similarity 1 (they are identical).
func (s Set) Jaccard(t Set) float64 {
	return jaccardFromCounts(s.IntersectionSize(t), len(s.elems), len(t.elems))
}

// jaccardFromCounts returns the Jaccard similarity of two sets of sizes n
// and m that share inter elements: inter / (n + m − inter), and 1 when both
// are empty. Set.Jaccard and Bitmap.Jaccard both compute it here, so their
// results are bit-identical.
func jaccardFromCounts(inter, n, m int) float64 {
	union := n + m - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// bitmapCap bounds the elements a Bitmap holds as bits, and so its size to
// 512 KiB. Dictionary ids are dense from 0; the public package's bit-63
// ids for unseen query elements lie above it.
const bitmapCap = 1 << 22

// Bitmap holds one query set q for counting |q ∩ s| against many sets s:
// bit e is set for each element e of q below limit (q's largest element
// below bitmapCap, plus one), and the rest of q is the sorted tail. The
// zero value is ready to Load; goroutines may share a loaded Bitmap.
type Bitmap struct {
	words []uint64 // all zero outside Load..Reset
	limit Elem
	q     []Elem
	tail  []Elem
}

// Load makes b hold q, clearing what an earlier Load left first.
func (b *Bitmap) Load(q Set) {
	b.Reset()
	b.q = q.elems
	i := sort.Search(len(b.q), func(i int) bool { return b.q[i] >= bitmapCap })
	b.tail = b.q[i:]
	if i > 0 {
		b.limit = b.q[i-1] + 1
		words := int(b.limit+63) / 64
		b.words = slices.Grow(b.words[:0], words)[:words]
	}
	for _, e := range b.q[:i] {
		b.words[e>>6] |= 1 << (e & 63)
	}
}

// Reset clears only the words the loaded query set, and drops the query.
func (b *Bitmap) Reset() {
	for _, e := range b.q[:len(b.q)-len(b.tail)] {
		b.words[e>>6] = 0
	}
	b.q, b.tail, b.limit = nil, nil, 0
}

// IntersectionSize returns |q ∩ s| for the loaded q: a bit test per element
// of s below the limit, then a merge of the rest of s against the tail.
func (b *Bitmap) IntersectionSize(s Set) int {
	n, i := 0, 0
	for ; i < len(s.elems) && s.elems[i] < b.limit; i++ {
		e := s.elems[i]
		n += int(b.words[e>>6] >> (e & 63) & 1)
	}
	if i < len(s.elems) && len(b.tail) > 0 {
		n += FromSorted(s.elems[i:]).IntersectionSize(FromSorted(b.tail))
	}
	return n
}

// Jaccard returns sim(q, s) for the loaded q, equal to q.Jaccard(s).
func (b *Bitmap) Jaccard(s Set) float64 {
	return jaccardFromCounts(b.IntersectionSize(s), len(b.q), len(s.elems))
}

// Distance returns the Jaccard distance 1 - sim(s, t), which is a metric.
func (s Set) Distance(t Set) float64 { return 1 - s.Jaccard(t) }

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
