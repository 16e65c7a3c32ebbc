// Package minhash implements the min-wise independent permutation embedding
// of Section 3.1: each set is represented by the vector of its minimum hash
// values under k independent (approximately min-wise) permutations. For two
// sets A and B, Pr[min π(A) = min π(B)] = sim(A, B), so the fraction of
// agreeing signature coordinates is an unbiased estimator of Jaccard
// similarity.
//
// As in the paper's practice, the random permutations are approximated by
// hashing: each permutation is a degree-1 polynomial over the Mersenne prime
// field GF(2^61 - 1) applied to a well-mixed image of the element id. Values
// are then truncated to a configurable number of bits b for the Hamming
// embedding stage (package filter), as b-bit minwise hashing does.
package minhash

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"repro/internal/set"
)

// mersenne61 is the modulus of the permutation field.
const mersenne61 = (1 << 61) - 1

// Bounds on Options. Options arrive from callers and from snapshots, and k
// sizes the permutation bank and every signature; b sizes the 2^b-bit
// Hadamard codewords the truncated values embed into.
const (
	MaxK    = 1 << 16
	MaxBits = 20
)

// Options configures signing and the truncation of signatures for the
// Hamming embedding.
type Options struct {
	// K is the number of min-hash permutations (signature length).
	// The paper's experiments use 100.
	K int
	// Bits is the precision b of each truncated min-hash value; codewords
	// of the Hadamard code have m = 2^Bits bits.
	Bits int
	// Seed makes the permutations reproducible. The same seed must be used
	// to sign the collection and the queries.
	Seed int64
}

// DefaultOptions mirrors the paper's experimental setup: 100 min-hash
// values, 8-bit truncation (256-bit Hadamard codewords, D = 25600).
func DefaultOptions() Options {
	return Options{K: 100, Bits: 8, Seed: 1}
}

// Validate reports an error unless K is in [1, MaxK] and Bits in
// [1, MaxBits].
func (o Options) Validate() error {
	if o.K < 1 || o.K > MaxK {
		return fmt.Errorf("minhash: k=%d out of range [1, %d]", o.K, MaxK)
	}
	if o.Bits < 1 || o.Bits > MaxBits {
		return fmt.Errorf("minhash: bits=%d out of range [1, %d]", o.Bits, MaxBits)
	}
	return nil
}

// Perms is a bank of k hash functions approximating min-wise independent
// permutations — the classic k-min signing primitive. A Perms is immutable
// after construction and safe for concurrent use. Both parties of a
// comparison must use the same Perms (same seed, same k).
type Perms struct {
	a, b []uint64 // per-permutation coefficients, a != 0
	k    int
}

// NewFamily creates a bank of k permutations from a seed. The same
// (seed, k) always yields the same bank.
func NewFamily(k int, seed int64) (*Perms, error) {
	return NewFamilyRand(k, rand.New(rand.NewSource(seed)))
}

// NewFamilyRand creates a bank of k permutations drawing coefficients
// from rng. It is the injection point for callers that thread one random
// stream through a whole pipeline; rng is consumed (k·2 draws) and not
// retained. Two rngs in the same state yield identical banks.
func NewFamilyRand(k int, rng *rand.Rand) (*Perms, error) {
	if k < 1 {
		return nil, fmt.Errorf("minhash: k must be >= 1, got %d", k)
	}
	if rng == nil {
		return nil, fmt.Errorf("minhash: nil rng")
	}
	f := &Perms{a: make([]uint64, k), b: make([]uint64, k), k: k}
	for i := 0; i < k; i++ {
		a := uint64(rng.Int63n(mersenne61-1)) + 1 // a in [1, p-1]
		b := uint64(rng.Int63n(mersenne61))       // b in [0, p-1]
		f.a[i], f.b[i] = a, b
	}
	return f, nil
}

// K returns the number of permutations (the signature length).
func (f *Perms) K() int { return f.k }

// splitmix64 finalizes element ids into well-distributed field inputs.
// Dense dictionary ids (0, 1, 2, ...) would otherwise correlate across the
// degree-1 permutations.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// mulmod61 computes a*b mod 2^61-1 using a 128-bit intermediate product.
// The 128-bit value hi·2^64 + lo is folded with 2^64 ≡ 8 (mod 2^61-1).
func mulmod61(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	res := (lo & mersenne61) + (lo >> 61) + ((hi << 3) & mersenne61) + (hi >> 58)
	for res >= mersenne61 {
		res -= mersenne61
	}
	return res
}

// perm applies permutation i to element e.
func (f *Perms) perm(i int, e set.Elem) uint64 {
	x := splitmix64(uint64(e)) % mersenne61
	v := mulmod61(f.a[i], x) + f.b[i]
	if v >= mersenne61 {
		v -= mersenne61
	}
	return v
}

// Signature is the min-hash signature of a set: Signature[i] = min π_i(S).
// It is the V-space vector of Section 3.1.
type Signature []uint64

// Sign computes the signature of s. An empty set gets the all-max signature,
// which collides with nothing but another empty set.
func (f *Perms) Sign(s set.Set) Signature {
	sig := make(Signature, f.k)
	f.SignInto(s, sig)
	return sig
}

// SignInto computes the signature of s into dst, which must have length k.
// It performs no allocations, so hot paths (build workers, query signing)
// can reuse one buffer per worker. The result is identical to Sign.
func (f *Perms) SignInto(s set.Set, dst Signature) {
	if len(dst) != f.k {
		panic(fmt.Sprintf("minhash: SignInto dst has %d coordinates, family has k=%d", len(dst), f.k))
	}
	for i := range dst {
		dst[i] = ^uint64(0)
	}
	for _, e := range s.Elems() {
		x := splitmix64(uint64(e)) % mersenne61
		for i := 0; i < f.k; i++ {
			v := mulmod61(f.a[i], x) + f.b[i]
			if v >= mersenne61 {
				v -= mersenne61
			}
			if v < dst[i] {
				dst[i] = v
			}
		}
	}
}

// Estimate returns the fraction of coordinates on which the two signatures
// agree — the unbiased Jaccard estimator of Section 3.1. Signatures must
// come from the same Perms.
func Estimate(a, b Signature) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("minhash: signature lengths differ: %d vs %d", len(a), len(b))
	}
	if len(a) == 0 {
		return 0, fmt.Errorf("minhash: empty signatures")
	}
	agree := 0
	for i := range a {
		if a[i] == b[i] {
			agree++
		}
	}
	return float64(agree) / float64(len(a)), nil
}

// Truncate returns the low b bits of coordinate i, the fixed-precision
// representation fed to the error-correcting code. Truncation can only merge
// distinct values, so it biases the agreement rate up by about 2^-b; with
// the default b the effect is far below the sampling noise of k repetitions.
func (s Signature) Truncate(i, b int) uint64 {
	return s[i] & ((1 << uint(b)) - 1)
}

// Eps95 is the two-sided 95%-confidence half-width of Estimate at k
// coordinates: the smallest eps with AgreeBound(k, eps) ≤ 0.05, i.e.
// sqrt(ln(2/0.05) / 2k). It is the screening margin, the screen-only
// plan's answer width and the width EstimateSimilarity reports.
func Eps95(k int) float64 {
	return math.Sqrt(math.Log(2/0.05) / (2 * float64(k)))
}

// AgreeBound returns the two-sided Chernoff bound on the probability that
// the estimate from k coordinates deviates from the true similarity by more
// than eps (used to size k): 2·exp(-2·k·eps²).
func AgreeBound(k int, eps float64) float64 {
	return 2 * math.Exp(-2*float64(k)*eps*eps)
}
