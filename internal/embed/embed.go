// Package embed composes the two embeddings of Section 3: sets to min-hash
// signature vectors (S → V, package minhash) and signatures to binary
// vectors in Hamming space (V → H, package ecc).
//
// The D = k·m dimensional Hamming space has the Theorem 1 property: sets
// with Jaccard similarity s land at expected Hamming distance (1-s)/2 · D,
// i.e. expected Hamming similarity (1+s)/2. The Hamming vector is never
// materialised: bit p is codeword bit p%m of signature coordinate p/m, and
// the filter indices gather the bits they sample straight from the
// signature through the code's columns.
package embed

import (
	"fmt"

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
	// of the Hadamard code have m = 2^Bits bits.
	Bits int
	// Seed makes the embedding reproducible. The same seed must be used to
	// embed the collection and the queries.
	Seed int64
}

// DefaultOptions mirrors the paper's experimental setup: 100 min-hash
// values, 8-bit truncation (256-bit Hadamard codewords, D = 25600).
func DefaultOptions() Options {
	return Options{K: 100, Bits: 8, Seed: 1}
}

// Embedder carries out the S → V → H transformation. It is immutable after
// construction and safe for concurrent use.
type Embedder struct {
	family *minhash.Perms
	code   ecc.Code
	k      int
	b      int
}

// New creates an Embedder from options.
func New(opt Options) (*Embedder, error) {
	if opt.K < 1 {
		return nil, fmt.Errorf("embed: K must be >= 1, got %d", opt.K)
	}
	code, err := ecc.NewHadamard(opt.Bits)
	if err != nil {
		return nil, err
	}
	fam, err := minhash.NewFamily(opt.K, opt.Seed)
	if err != nil {
		return nil, err
	}
	return &Embedder{family: fam, code: code, k: opt.K, b: opt.Bits}, nil
}

// EmbedBits returns b, the truncation width each signature coordinate is
// stored at in the Hamming embedding.
func (e *Embedder) EmbedBits() int { return e.b }

// K returns the signature length.
func (e *Embedder) K() int { return e.k }

// Code returns the error-correcting code: bit p of the embedded vector is
// parity(sig[p/m] & Code().Column(p%m)), which reads only the low b bits
// of the coordinate.
func (e *Embedder) Code() ecc.Code { return e.code }

// Sign computes just the min-hash signature of s (the V-space vector).
func (e *Embedder) Sign(s set.Set) minhash.Signature { return e.family.Sign(s) }

// SignInto computes the signature of s into dst (length K) without
// allocating — the build workers' and batch query path's signing primitive.
func (e *Embedder) SignInto(s set.Set, dst minhash.Signature) { e.family.SignInto(s, dst) }

// HammingFromJaccard converts a Jaccard similarity to the expected Hamming
// similarity of the embedded vectors under Theorem 1: s_H = (1+s)/2.
func HammingFromJaccard(s float64) float64 { return (1 + s) / 2 }
