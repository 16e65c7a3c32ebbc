package core

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/set"
	"repro/internal/storage"
)

// sortMatchesReference is the comparator sort the radix sort replaced.
func sortMatchesReference(matches []Match) {
	sort.Slice(matches, func(i, j int) bool {
		if matches[i].Similarity != matches[j].Similarity {
			return matches[i].Similarity > matches[j].Similarity
		}
		return matches[i].SID < matches[j].SID
	})
}

// checkSortMatches sorts a copy of in both ways and compares.
func checkSortMatches(t testing.TB, in []Match) {
	t.Helper()
	got, want := slices.Clone(in), slices.Clone(in)
	sortMatches(got)
	sortMatchesReference(want)
	if !slices.Equal(got, want) {
		t.Fatalf("sortMatches(%v) = %v, want %v", in, got, want)
	}
}

// checkSortPath checks sortMatches on in, and that in does (fast) or
// does not take the 32-bit key sort.
func checkSortPath(t testing.TB, label string, in []Match, fast bool) {
	t.Helper()
	checkSortMatches(t, in)
	if got := new(sortBuffers).sortByKey(slices.Clone(in)); got != fast {
		t.Fatalf("%s: sortByKey took %d matches %v, want %v", label, len(in), got, fast)
	}
}

func TestSortMatchesMatchesComparator(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// Heavy ties: similarities are 0, 1 and Jaccard-like fractions a/b
	// with small b (full mantissas, many equal), each possibly nudged one
	// ulp so neighbours differ in the lowest digit; sids spread over every
	// byte digit.
	sim := func() float64 {
		b := 1 + rng.Intn(40)
		v := float64(rng.Intn(b+1)) / float64(b)
		if rng.Intn(4) == 0 {
			v = math.Nextafter(v, 2)
		}
		return v
	}
	randomMatches := func(n int, sidRange int) []Match {
		out := make([]Match, n)
		for i, sid := range rng.Perm(sidRange)[:n] {
			out[i] = Match{SID: uint32(sid) * 16777259, Similarity: sim()}
		}
		return out
	}
	for _, n := range []int{0, 1, 2, 3, 17, 256, 3000} {
		for trial := 0; trial < 5; trial++ {
			checkSortMatches(t, randomMatches(n, 4*n+1))
		}
	}
	// All equal similarities (every similarity digit constant) and all
	// equal sids but one (most sid digits constant).
	same := make([]Match, 100)
	for i := range same {
		same[i] = Match{SID: uint32(99 - i), Similarity: 0.5}
	}
	checkSortMatches(t, same)
	checkSortMatches(t, []Match{{SID: 7, Similarity: 0}, {SID: 7, Similarity: 1}})

	// Similarities that differ from 1/3 in exactly one byte, each byte in
	// turn, so every similarity digit decides some pair.
	var apart []Match
	for j := 0; j < 8; j++ {
		v := math.Float64frombits(math.Float64bits(1.0/3) ^ 1<<(8*j))
		apart = append(apart, Match{SID: uint32(j), Similarity: v}, Match{SID: uint32(20 - j), Similarity: 1.0 / 3})
	}
	rng.Shuffle(len(apart), func(i, j int) { apart[i], apart[j] = apart[j], apart[i] })
	checkSortMatches(t, apart)

	// Verification's input: ascending sids, which skip the sid digits.
	ascending := randomMatches(500, 100000)
	slices.SortFunc(ascending, func(a, b Match) int { return cmp.Compare(a.SID, b.SID) })
	checkSortMatches(t, ascending)

	// Verification's own output: ascending sids and Jaccard fractions with
	// denominators below 2^16, which the 32-bit key sorts alone.
	fractions := make([]Match, 3000)
	for i := range fractions {
		b := 1 + rng.Intn(1<<16-1)
		fractions[i] = Match{SID: uint32(3 * i), Similarity: float64(rng.Intn(b+1)) / float64(b)}
	}
	fractions[7].Similarity, fractions[8].Similarity = 1, 0
	checkSortPath(t, "fractions below 2^16", fractions, true)

	// Fractions whose denominators straddle 2^16 can lie within 2^-32 of
	// each other and share a key: the check must send them to the radix
	// sort. a/b and c/d are 1/(bd) apart when ad − cb = ±1.
	var straddle []Match
	for d := 1<<16 + 1; d < 1<<17 && len(straddle) < 40; d += 997 {
		const b = 1<<16 - 1
		for a := 1; a < b && len(straddle) < 40; a++ {
			if r := a * d % b; r != 1 && r != b-1 {
				continue
			}
			c := (a*d + 1) / b
			x, y := float64(a)/float64(b), float64(c)/float64(d)
			if x != y && math.Floor(x*(1<<32)) == math.Floor(y*(1<<32)) {
				straddle = append(straddle, Match{Similarity: y}, Match{Similarity: x})
			}
		}
	}
	if len(straddle) == 0 {
		t.Fatal("found no two fractions sharing a key")
	}
	for i := range straddle {
		straddle[i].SID = uint32(i)
	}
	checkSortPath(t, "fractions straddling 2^16", straddle, false)

	// 1 itself and the similarities within 2^-32 below it share the key
	// 1 is clamped to.
	nearOne := []Match{{0, 1 - 0x1p-40}, {1, 1}, {2, 0.5}, {3, 1}}
	checkSortPath(t, "exactly 1 and within 2^-32 of it", nearOne, false)
	for i, v := range []float64{1 - 0x1p-32, 1 - 0x1p-33, math.Nextafter(1, 0)} {
		checkSortPath(t, fmt.Sprintf("1 and %v", v), []Match{{0, v}, {uint32(1 + i), 1}}, false)
	}
	checkSortPath(t, "1 and 1 - 2^-31", []Match{{0, 1 - 0x1p-31}, {1, 1}, {2, 1}}, true)

	// The gather's input: several lists, each already in the total order,
	// concatenated.
	var gathered []Match
	for shard := 0; shard < 4; shard++ {
		part := randomMatches(200, 100000)
		sortMatchesReference(part)
		gathered = append(gathered, part...)
	}
	checkSortMatches(t, gathered)
}

// FuzzSortMatches checks sortMatches against the comparator sort on
// arbitrary inputs, and again after putting them in ascending sid order:
// each 12 bytes of data are one match, a 4-byte sid and the 8 bytes of a
// similarity with the sign and top exponent bit cleared (non-negative and
// finite, below 2; subnormals and 0 included).
func FuzzSortMatches(f *testing.F) {
	f.Add([]byte{})
	one, half := math.Float64bits(1), math.Float64bits(0.5)
	var seed []byte
	for _, m := range []struct {
		sid uint32
		sim uint64
	}{{1, one}, {0, one}, {0xFFFFFFFF, 0}, {7, half}, {3, half + 1}, {2, half}} {
		seed = binary.LittleEndian.AppendUint32(seed, m.sid)
		seed = binary.LittleEndian.AppendUint64(seed, m.sim)
	}
	f.Add(seed)
	// Ascending sids with Jaccard fractions (the 32-bit key), and with 1
	// beside a similarity within 2^-32 of it (the key's fallback).
	for _, sims := range [][]float64{{2.0 / 3, 1, 0.5, 1.0 / 3, 2.0 / 3, 0}, {1, 1 - 0x1p-33, 1, 0.25}} {
		var asc []byte
		for i, sim := range sims {
			asc = binary.LittleEndian.AppendUint32(asc, uint32(2*i+1))
			asc = binary.LittleEndian.AppendUint64(asc, math.Float64bits(sim))
		}
		f.Add(asc)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var in []Match
		for ; len(data) >= 12; data = data[12:] {
			sim := math.Float64frombits(binary.LittleEndian.Uint64(data[4:]) &^ (3 << 62))
			in = append(in, Match{SID: binary.LittleEndian.Uint32(data), Similarity: sim})
		}
		checkSortMatches(t, in)
		// The same matches in ascending sid order, each sid kept once, as
		// verification emits them.
		slices.SortFunc(in, func(a, b Match) int { return cmp.Compare(a.SID, b.SID) })
		checkSortMatches(t, slices.CompactFunc(in, func(a, b Match) bool { return a.SID == b.SID }))
	})
}

// BenchmarkSortMatches sorts a wide_range-sized answer: 8800 matches in
// ascending sid order (as verification emits them) with similarities in
// [0.5, 0.7].
func BenchmarkSortMatches(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	in := make([]Match, 8800)
	for i := range in {
		in[i] = Match{SID: uint32(2 * i), Similarity: 0.5 + 0.2*float64(rng.Intn(1000))/1000}
	}
	buf := make([]Match, len(in))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, in)
		sortMatches(buf)
	}
}

// BenchmarkVerify verifies, on one worker, the filter's candidates for a
// wide range [0.5, 0.7] around the Set1-corpus query that has the most:
// the size window, the fetches and the overlaps counted against the query
// bitmap.
func BenchmarkVerify(b *testing.B) {
	ix, sets := buildSmall(b, 2000, 40)
	var q set.Set
	var cands []storage.SID
	for _, s := range sets[:50] {
		c, err := ix.Candidates(s, 0.5, 0.7, &QueryStats{})
		if err != nil {
			b.Fatal(err)
		}
		if len(c) > len(cands) {
			q, cands = s, c
		}
	}
	sig := ix.perms.Sign(q)
	var qbits set.Bitmap
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.verifyCandidates(q, &qbits, sig, cands, 0.5, 0.7, QueryOptions{Workers: 1}, &QueryStats{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(cands)), "candidates")
}
