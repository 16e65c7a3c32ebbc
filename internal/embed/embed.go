// Package embed composes the two embeddings of Section 3: sets to min-hash
// signature vectors (S → V, package minhash) and signatures to binary
// vectors in Hamming space (V → H, package ecc).
//
// The resulting D = k·m dimensional Hamming space has the Theorem 1
// property: sets with Jaccard similarity s land at expected Hamming distance
// (1-s)/2 · D, i.e. expected Hamming similarity (1+s)/2. The package also
// provides the similarity-scale conversions implied by that theorem, which
// the filter indices use to translate query ranges.
package embed

import (
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/ecc"
	"repro/internal/minhash"
	"repro/internal/set"
)

// Options configures an Embedder.
type Options struct {
	// K is the number of min-hash permutations (signature length).
	// The paper's experiments use 100.
	K int
	// Bits is the precision b of each truncated min-hash value; codewords
	// have m = 2^Bits bits under the default Hadamard code.
	Bits int
	// Seed makes the embedding reproducible. The same seed must be used to
	// embed the collection and the queries.
	Seed int64
	// Code overrides the error-correcting code; nil selects Hadamard(Bits).
	Code ecc.Code
}

// DefaultOptions mirrors the paper's experimental setup: 100 min-hash
// values, 8-bit truncation (256-bit Hadamard codewords, D = 25600).
func DefaultOptions() Options {
	return Options{K: 100, Bits: 8, Seed: 1}
}

// Embedder carries out the full S → V → H transformation. It is immutable
// after construction and safe for concurrent use.
type Embedder struct {
	family *minhash.Perms
	code   ecc.Code
	k      int
	b      int
	m      int
	d      int
}

// New creates an Embedder from options.
func New(opt Options) (*Embedder, error) {
	if opt.K < 1 {
		return nil, fmt.Errorf("embed: K must be >= 1, got %d", opt.K)
	}
	code := opt.Code
	if code == nil {
		var err error
		code, err = ecc.NewHadamard(opt.Bits)
		if err != nil {
			return nil, err
		}
	}
	if code.MessageBits() != opt.Bits {
		return nil, fmt.Errorf("embed: code message bits %d != Bits %d", code.MessageBits(), opt.Bits)
	}
	fam, err := minhash.NewFamily(opt.K, opt.Seed)
	if err != nil {
		return nil, err
	}
	return &Embedder{
		family: fam,
		code:   code,
		k:      opt.K,
		b:      opt.Bits,
		m:      code.Length(),
		d:      opt.K * code.Length(),
	}, nil
}

// Dimension returns D = k·m, the Hamming-space dimensionality.
func (e *Embedder) Dimension() int { return e.d }

// Perms exposes the classic permutation bank, so signing families built
// on classic k-min hashes (minhash.Config.New) share the exact
// permutations the embedding pipeline uses.
func (e *Embedder) Perms() *minhash.Perms { return e.family }

// EmbedBits returns b, the truncation width each signature coordinate is
// stored at in the Hamming embedding.
func (e *Embedder) EmbedBits() int { return e.b }

// K returns the signature length.
func (e *Embedder) K() int { return e.k }

// CodeLength returns m, the per-coordinate codeword length.
func (e *Embedder) CodeLength() int { return e.m }

// Code returns the error-correcting code: bit p of the embedded vector is
// Code().Bit(sig[p/m], p%m), which reads only the low b bits of the
// coordinate — the filter indices gather their keys this way, without
// materialising the D-bit vector.
func (e *Embedder) Code() ecc.Code { return e.code }

// Sign computes just the min-hash signature of s (the V-space vector).
func (e *Embedder) Sign(s set.Set) minhash.Signature { return e.family.Sign(s) }

// SignInto computes the signature of s into dst (length K) without
// allocating — the build workers' and batch query path's signing primitive.
func (e *Embedder) SignInto(s set.Set, dst minhash.Signature) { e.family.SignInto(s, dst) }

// Embed maps a set all the way to its D-bit Hamming vector.
func (e *Embedder) Embed(s set.Set) bitvec.Vector {
	return e.EmbedSignature(e.family.Sign(s))
}

// EmbedSignature maps an existing signature to its D-bit Hamming vector.
func (e *Embedder) EmbedSignature(sig minhash.Signature) bitvec.Vector {
	v := bitvec.New(e.d)
	e.appendCodewords(v, sig)
	return v
}

// EmbedSignatureInto writes the D-bit Hamming vector of sig into dst,
// reusing dst's backing storage (it is zeroed first). dst must have
// dimension D; the result is identical to EmbedSignature.
func (e *Embedder) EmbedSignatureInto(sig minhash.Signature, dst bitvec.Vector) {
	if dst.Len() != e.d {
		panic(fmt.Sprintf("embed: EmbedSignatureInto dst has %d bits, embedding has D=%d", dst.Len(), e.d))
	}
	dst.Reset()
	e.appendCodewords(dst, sig)
}

func (e *Embedder) appendCodewords(v bitvec.Vector, sig minhash.Signature) {
	for i := 0; i < e.k; i++ {
		e.code.AppendCodeword(v, i*e.m, sig.Truncate(i, e.b))
	}
}

// HammingFromJaccard converts a Jaccard similarity to the expected Hamming
// similarity of the embedded vectors under Theorem 1: s_H = (1+s)/2.
func HammingFromJaccard(s float64) float64 { return (1 + s) / 2 }

// JaccardFromHamming inverts HammingFromJaccard: s = 2·s_H - 1.
func JaccardFromHamming(sh float64) float64 { return 2*sh - 1 }

// DistanceRange translates a Jaccard similarity range [σ1, σ2] into the
// Hamming distance range [d1, d2] of Section 3.3: d = (1-σ)/2 · D, with the
// larger similarity giving the smaller distance.
func (e *Embedder) DistanceRange(sigma1, sigma2 float64) (d1, d2 float64) {
	return (1 - sigma2) / 2 * float64(e.d), (1 - sigma1) / 2 * float64(e.d)
}
