package core

import (
	"cmp"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
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

// FuzzSortMatches checks the radix sort against the comparator sort on
// arbitrary inputs: each 12 bytes of data are one match, a 4-byte sid and
// the 8 bytes of a similarity with the sign and top exponent bit cleared
// (non-negative and finite, below 2; subnormals and 0 included).
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
	f.Fuzz(func(t *testing.T, data []byte) {
		var in []Match
		for ; len(data) >= 12; data = data[12:] {
			sim := math.Float64frombits(binary.LittleEndian.Uint64(data[4:]) &^ (3 << 62))
			in = append(in, Match{SID: binary.LittleEndian.Uint32(data), Similarity: sim})
		}
		checkSortMatches(t, in)
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
