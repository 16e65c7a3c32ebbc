package filter

import (
	"math/rand"
	"testing"

	"repro/internal/ecc"
	"repro/internal/minhash"
)

// codewordBit is bit x of the codeword of the b-bit message v, computed
// from each code's definition rather than from its columns: the GF(2)
// inner product <v, x>, one bit pair at a time, for Hadamard; message bit
// x for identity.
func codewordBit(name string, v uint64, x int) byte {
	if name != "hadamard" {
		return byte(v>>uint(x)) & 1
	}
	var p byte
	for i := 0; i < 64; i++ {
		p ^= byte((v >> uint(i)) & (uint64(x) >> uint(i)) & 1)
	}
	return p
}

// refKey is the per-bit key derivation the compiled gather replaced, kept
// as its reference: each sampled position p is codeword bit p%m of the
// b-bit truncated coordinate trunc(p/m), complemented for a DFI probe; the
// bit string is folded in 64-bit chunks and a trailing chunk carries its
// length.
func refKey(name string, m int, positions []int, trunc func(i int) uint64, complement bool) uint64 {
	var key, chunk uint64
	nbits := 0
	for _, pos := range positions {
		bit := codewordBit(name, trunc(pos/m), pos%m)
		if complement {
			bit = 1 - bit
		}
		chunk = chunk<<1 | uint64(bit)
		nbits++
		if nbits == 64 {
			key = foldChunk(key, chunk)
			chunk, nbits = 0, 0
		}
	}
	switch {
	case nbits >= 59:
		key = foldChunk(foldChunk(key, chunk), uint64(nbits))
	case nbits > 0:
		key = foldChunk(key, chunk|uint64(nbits)<<57)
	}
	return key
}

var codeNames = []string{"hadamard", "identity"}

func newCode(t testing.TB, name string, b int) ecc.Code {
	t.Helper()
	var c ecc.Code
	var err error
	if name == "hadamard" {
		c, err = ecc.NewHadamard(b)
	} else {
		c, err = ecc.NewIdentity(b)
	}
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// gatherK is the signature length of the key-identity checks: k·m ≥ 130
// for every code and width, so every r in 1..130 fits.
const gatherK = 136

func randomSignature(rng *rand.Rand) minhash.Signature {
	sig := make(minhash.Signature, gatherK)
	for i := range sig {
		sig[i] = rng.Uint64()
	}
	return sig
}

// TestGatherMatchesPerBitReference pins key identity: for the Hadamard and
// identity codes at b ∈ {1, 4, 8, 12}, every r in 1..130 and both kinds,
// the compiled gather over a signature equals the per-bit derivation bit
// for bit.
func TestGatherMatchesPerBitReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sigs := []minhash.Signature{randomSignature(rng), randomSignature(rng)}
	for _, name := range codeNames {
		for _, b := range []int{1, 4, 8, 12} {
			code := newCode(t, name, b)
			for r := 1; r <= 130; r++ {
				ix, err := newIndex(0, Options{Code: code, K: gatherK, Tables: 2, Seed: int64(r)}, r)
				if err != nil {
					t.Fatal(err)
				}
				for si, sig := range sigs {
					trunc := func(i int) uint64 { return sig.Truncate(i, b) }
					for _, flip := range []byte{0, 1} {
						for i := 0; i < ix.Tables(); i++ {
							got := ix.Key(i, sig, flip)
							want := refKey(name, code.Length(), ix.Positions(i), trunc, flip == 1)
							if got != want {
								t.Fatalf("%s b=%d r=%d flip=%d sig %d table %d: gather %#x, per-bit %#x",
									name, b, r, flip, si, i, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// TestEverySampledBitChangesKey: a table key is injective in its sampled
// bits. Flipping any one of them changes the key, for every r up to 130
// and both kinds; a key that ignored a bit would collide like a narrower
// table than the optimizer priced.
func TestEverySampledBitChangesKey(t *testing.T) {
	const k = 130
	rng := rand.New(rand.NewSource(3))
	for r := 1; r <= k; r++ {
		ix, err := newIndex(0, Options{Code: bitCode(t), K: k, Tables: 1, Seed: int64(r)}, r)
		if err != nil {
			t.Fatal(err)
		}
		v := randomVec(rng, k)
		for _, flip := range []byte{0, 1} {
			base := ix.Key(0, v, flip)
			for _, p := range ix.Positions(0) {
				v[p] ^= 1
				changed := ix.Key(0, v, flip) != base
				v[p] ^= 1
				if !changed {
					t.Errorf("r=%d flip=%d: sampled position %d does not change the key", r, flip, p)
				}
			}
		}
	}
}

// FuzzGatherKey checks the compiled gather against the per-bit reference
// on arbitrary codes, widths, table widths, signatures and kinds.
func FuzzGatherKey(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(8), uint16(12), false)
	f.Add(int64(2), uint8(0), uint8(4), uint16(61), true)
	f.Add(int64(3), uint8(1), uint8(1), uint16(130), false)
	f.Fuzz(func(t *testing.T, seed int64, codeSel, bits uint8, r uint16, dfi bool) {
		b := 1 + int(bits)%12
		name := codeNames[int(codeSel)%len(codeNames)]
		code := newCode(t, name, b)
		rr := 1 + int(r)%min(gatherK*code.Length(), 200)
		ix, err := newIndex(0, Options{Code: code, K: gatherK, Tables: 2, Seed: seed}, rr)
		if err != nil {
			t.Fatal(err)
		}
		sig := randomSignature(rand.New(rand.NewSource(seed)))
		var flip byte
		if dfi {
			flip = 1
		}
		for i := 0; i < ix.Tables(); i++ {
			want := refKey(name, code.Length(), ix.Positions(i), func(c int) uint64 { return sig.Truncate(c, b) }, dfi)
			if got := ix.Key(i, sig, flip); got != want {
				t.Fatalf("b=%d r=%d table %d: gather %#x, per-bit %#x", b, rr, i, got, want)
			}
		}
	})
}
