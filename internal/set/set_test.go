package set

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewSortsAndDeduplicates(t *testing.T) {
	s := New(5, 3, 5, 1, 3, 3)
	want := []Elem{1, 3, 5}
	if !reflect.DeepEqual(s.Elems(), want) {
		t.Errorf("Elems = %v, want %v", s.Elems(), want)
	}
	if s.Len() != 3 {
		t.Errorf("Len = %d, want 3", s.Len())
	}
}

func TestEmptySet(t *testing.T) {
	var s Set
	if !s.IsEmpty() || s.Len() != 0 {
		t.Error("zero value not empty")
	}
	if s.Contains(0) {
		t.Error("empty set contains 0")
	}
	if got := s.Jaccard(Set{}); got != 1 {
		t.Errorf("Jaccard(empty, empty) = %g, want 1", got)
	}
	if got := s.Jaccard(New(1)); got != 0 {
		t.Errorf("Jaccard(empty, {1}) = %g, want 0", got)
	}
}

func TestContains(t *testing.T) {
	s := New(2, 4, 6, 8)
	for _, e := range []Elem{2, 4, 6, 8} {
		if !s.Contains(e) {
			t.Errorf("Contains(%d) = false", e)
		}
	}
	for _, e := range []Elem{0, 1, 3, 5, 7, 9, 100} {
		if s.Contains(e) {
			t.Errorf("Contains(%d) = true", e)
		}
	}
}

func TestJaccardKnownValues(t *testing.T) {
	tests := []struct {
		a, b []Elem
		want float64
	}{
		{[]Elem{1, 2, 3}, []Elem{1, 2, 3}, 1},
		{[]Elem{1, 2, 3}, []Elem{4, 5, 6}, 0},
		{[]Elem{1, 2, 3, 4}, []Elem{3, 4, 5, 6}, 2.0 / 6.0},
		{[]Elem{1}, []Elem{1, 2}, 0.5},
		{[]Elem{1, 2, 3, 4, 5, 6, 7, 8, 9}, []Elem{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.9},
	}
	for _, tc := range tests {
		a, b := New(tc.a...), New(tc.b...)
		if got := a.Jaccard(b); got != tc.want {
			t.Errorf("Jaccard(%v, %v) = %g, want %g", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestIntersectionUnion(t *testing.T) {
	a := New(1, 2, 3, 4)
	b := New(3, 4, 5)
	if got := a.Intersection(b); !reflect.DeepEqual(got.Elems(), []Elem{3, 4}) {
		t.Errorf("Intersection = %v", got.Elems())
	}
	if got := a.Union(b); !reflect.DeepEqual(got.Elems(), []Elem{1, 2, 3, 4, 5}) {
		t.Errorf("Union = %v", got.Elems())
	}
	if got, want := a.IntersectionSize(b), 2; got != want {
		t.Errorf("IntersectionSize = %d, want %d", got, want)
	}
	if got, want := a.UnionSize(b), 5; got != want {
		t.Errorf("UnionSize = %d, want %d", got, want)
	}
}

func TestIntersectionSkewedSizes(t *testing.T) {
	// Exercise the binary-search path (one side 32x larger).
	big := make([]Elem, 0, 3200)
	for i := 0; i < 3200; i++ {
		big = append(big, Elem(i*3))
	}
	small := []Elem{0, 3, 7, 9000, 9600 - 3}
	a, b := New(big...), New(small...)
	want := 0
	for _, e := range small {
		if e%3 == 0 && e < 9600 {
			want++
		}
	}
	if got := a.IntersectionSize(b); got != want {
		t.Errorf("IntersectionSize = %d, want %d", got, want)
	}
	if got := b.IntersectionSize(a); got != want {
		t.Errorf("IntersectionSize (swapped) = %d, want %d", got, want)
	}
}

func TestFromSortedValidate(t *testing.T) {
	ok := FromSorted([]Elem{1, 2, 3})
	if err := ok.Validate(); err != nil {
		t.Errorf("valid set rejected: %v", err)
	}
	bad := FromSorted([]Elem{3, 2})
	if err := bad.Validate(); err == nil {
		t.Error("descending set accepted")
	}
	dup := FromSorted([]Elem{2, 2})
	if err := dup.Validate(); err == nil {
		t.Error("duplicate set accepted")
	}
}

func TestEqual(t *testing.T) {
	if !New(1, 2).Equal(New(2, 1)) {
		t.Error("order-insensitive equality failed")
	}
	if New(1, 2).Equal(New(1, 2, 3)) {
		t.Error("different sizes equal")
	}
	if New(1, 2).Equal(New(1, 3)) {
		t.Error("different members equal")
	}
}

// randomSet draws a random set over a small universe so intersections are
// common.
func randomSet(rng *rand.Rand) Set {
	n := rng.Intn(30)
	elems := make([]Elem, n)
	for i := range elems {
		elems[i] = Elem(rng.Intn(60))
	}
	return New(elems...)
}

func TestJaccardProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		a, b, c := randomSet(rng), randomSet(rng), randomSet(rng)
		sab := a.Jaccard(b)
		// Range.
		if sab < 0 || sab > 1 {
			t.Fatalf("Jaccard out of range: %g", sab)
		}
		// Symmetry.
		if got := b.Jaccard(a); got != sab {
			t.Fatalf("asymmetric: %g vs %g", sab, got)
		}
		// Identity.
		if got := a.Jaccard(a); got != 1 {
			t.Fatalf("self-similarity %g != 1", got)
		}
		// Triangle inequality for the Jaccard distance (a metric).
		dab, dbc, dac := a.Distance(b), b.Distance(c), a.Distance(c)
		if dac > dab+dbc+1e-12 {
			t.Fatalf("triangle violated: d(a,c)=%g > d(a,b)+d(b,c)=%g", dac, dab+dbc)
		}
	}
}

func TestUnionIntersectionConsistency(t *testing.T) {
	// |A| + |B| = |A ∪ B| + |A ∩ B| (inclusion–exclusion).
	f := func(aRaw, bRaw []uint16) bool {
		a := make([]Elem, len(aRaw))
		for i, v := range aRaw {
			a[i] = Elem(v % 128)
		}
		b := make([]Elem, len(bRaw))
		for i, v := range bRaw {
			b[i] = Elem(v % 128)
		}
		sa, sb := New(a...), New(b...)
		inter := sa.Intersection(sb)
		union := sa.Union(sb)
		if inter.Validate() != nil || union.Validate() != nil {
			return false
		}
		if sa.Len()+sb.Len() != union.Len()+inter.Len() {
			return false
		}
		if inter.Len() != sa.IntersectionSize(sb) {
			return false
		}
		if union.Len() != sa.UnionSize(sb) {
			return false
		}
		// Every intersection element is in both, every union element in one.
		for _, e := range inter.Elems() {
			if !sa.Contains(e) || !sb.Contains(e) {
				return false
			}
		}
		for _, e := range union.Elems() {
			if !sa.Contains(e) && !sb.Contains(e) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestNewMatchesNaiveConstruction(t *testing.T) {
	f := func(raw []uint32) bool {
		elems := make([]Elem, len(raw))
		for i, v := range raw {
			elems[i] = Elem(v)
		}
		s := New(elems...)
		// Naive: map-based dedupe then sort.
		m := make(map[Elem]struct{})
		for _, e := range elems {
			m[e] = struct{}{}
		}
		naive := make([]Elem, 0, len(m))
		for e := range m {
			naive = append(naive, e)
		}
		sort.Slice(naive, func(i, j int) bool { return naive[i] < naive[j] })
		if s.Len() != len(naive) {
			return false
		}
		for i, e := range naive {
			if s.Elems()[i] != e {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// overlapElem maps a fuzz or random draw to an element id from one of the
// ranges a Bitmap treats differently: small dense ids, ids straddling
// bitmapCap, ids near 2^40, ids with bit 63 set, and ids at 2^64−1.
func overlapElem(kind, v uint16) Elem {
	switch kind % 5 {
	case 0:
		return Elem(v % 600)
	case 1:
		return bitmapCap - 4 + Elem(v%8)
	case 2:
		return 1<<40 + Elem(v%8)
	case 3:
		return 1<<63 | Elem(v%8)
	default:
		return ^Elem(0) - Elem(v%8)
	}
}

// checkBitmapOverlap loads q into b and checks its overlap, and the
// similarity through Bitmap.Jaccard, against the merge for each s.
func checkBitmapOverlap(t *testing.T, b *Bitmap, q Set, ss ...Set) {
	t.Helper()
	b.Load(q)
	defer b.Reset()
	for _, s := range ss {
		if got, want := b.IntersectionSize(s), q.IntersectionSize(s); got != want {
			t.Fatalf("bitmap |q∩s| = %d, merge %d (q %v, s %v)", got, want, q.Elems(), s.Elems())
		}
		if got, want := b.Jaccard(s), q.Jaccard(s); got != want {
			t.Fatalf("bitmap Jaccard = %v, Set.Jaccard %v", got, want)
		}
	}
}

// TestBitmapMatchesIntersectionSize checks the query bitmap against the
// merge on random sets of skewed sizes drawn from every id range, with
// empty sets on either side, reusing one Bitmap throughout so a bit a
// previous query left behind would show.
func TestBitmapMatchesIntersectionSize(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	draw := func(n int, kinds uint16) Set {
		elems := make([]Elem, n)
		for i := range elems {
			elems[i] = overlapElem(uint16(rng.Intn(int(kinds))), uint16(rng.Intn(1<<16)))
		}
		return New(elems...)
	}
	var b Bitmap
	checkBitmapOverlap(t, &b, Set{}, Set{}, New(0, 5), New(bitmapCap, 1<<63, ^Elem(0)))
	checkBitmapOverlap(t, &b, New(0, bitmapCap-1, bitmapCap, 1<<40, 1<<63, ^Elem(0)),
		Set{}, New(bitmapCap-1), New(bitmapCap), New(0, 1<<40, ^Elem(0)), New(1, bitmapCap+1, 1<<63|1))
	for trial := 0; trial < 400; trial++ {
		kinds := uint16(1 + trial%5) // small ids only, then ever wider ranges
		q := draw([]int{0, 1, 5, 40, 900}[rng.Intn(5)], kinds)
		ss := make([]Set, 20)
		for i := range ss {
			ss[i] = draw([]int{0, 1, 3, 30, 400, 2000}[rng.Intn(6)], kinds)
		}
		checkBitmapOverlap(t, &b, q, ss...)
	}
	for i, w := range b.words {
		if w != 0 {
			t.Fatalf("word %d = %#x after Reset", i, w)
		}
	}
}

// FuzzIntersection checks the query bitmap against Set.IntersectionSize
// on arbitrary pairs: each 4 bytes of data are one element, its first byte
// choosing the id range (overlapElem), whether it joins q, s or both, and
// the next two bytes its value in that range. One Bitmap serves every
// input, so Reset is checked too.
func FuzzIntersection(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x20, 1, 0, 0, 0x20, 2, 0, 0, 0x00, 3, 0, 0, 0x10, 4, 0, 0})
	f.Add([]byte{0x21, 3, 0, 0, 0x22, 0, 0, 0, 0x23, 1, 0, 0, 0x24, 7, 0, 0, 0x11, 4, 0, 0})
	var b Bitmap
	f.Fuzz(func(t *testing.T, data []byte) {
		var q, s []Elem
		for ; len(data) >= 4; data = data[4:] {
			e := overlapElem(uint16(data[0]&15), uint16(data[1])|uint16(data[2])<<8)
			switch data[0] >> 4 & 3 {
			case 0:
				q = append(q, e)
			case 1:
				s = append(s, e)
			default:
				q, s = append(q, e), append(s, e)
			}
		}
		checkBitmapOverlap(t, &b, New(q...), New(s...))
	})
}
