// Package ecc implements the error-correcting codes used to embed min-hash
// signatures into Hamming space (Section 3.2 of the paper).
//
// The construction needs a code in which every pair of distinct codewords is
// at Hamming distance exactly m/2, where m is the code length: then a vector
// of k b-bit min-hash values that agree in s·k coordinates maps to a D = m·k
// bit string at Hamming distance (1-s)/2·D (Theorem 1).
//
// Every code here is linear, so it is given by its generator columns:
// codeword bit x of a message v is the GF(2) inner product parity(v &
// Column(x)). The Hadamard code has column x = x for x in [0, 2^b): for
// u != w, parity((u^w) & x) is 1 on exactly half of all x, so d(C(u), C(w))
// = 2^(b-1) = m/2 for every distinct pair. The embedded D-bit vector is
// never materialised; the filter indices read the r sampled bits they need
// straight from the signature coordinates through these columns.
package ecc

import "fmt"

// Code is a linear binary code over b-bit messages, given by its generator
// columns: codeword bit pos of message v is parity(v & Column(pos)). A
// column only has bits below b set, so the message's higher bits are never
// read.
type Code interface {
	// Length returns m, the codeword length in bits.
	Length() int
	// Column returns generator column pos, 0 <= pos < Length().
	Column(pos int) uint64
}

// Hadamard is the length-2^b Hadamard code. Distinct codewords are at
// distance exactly 2^(b-1) = m/2.
type Hadamard struct{ m int }

// NewHadamard returns the Hadamard code over b-bit messages, 1 <= b <= 20.
// The upper bound keeps codewords (2^b bits) to a sane size.
func NewHadamard(b int) (*Hadamard, error) {
	if b < 1 || b > 20 {
		return nil, fmt.Errorf("ecc: hadamard message bits must be in [1,20], got %d", b)
	}
	return &Hadamard{m: 1 << uint(b)}, nil
}

// Length returns m = 2^b.
func (h *Hadamard) Length() int { return h.m }

// Column returns x: codeword bit x of v is <v, x> over GF(2).
func (h *Hadamard) Column(x int) uint64 { return uint64(x) }

// Identity is the trivial "code" that emits the b message bits unchanged —
// the straightforward embedding the paper shows to be broken (Example 1:
// disagreeing min-hash values still share bits). It exists so tests and
// experiments can demonstrate the distortion the Hadamard code removes.
type Identity struct{ b int }

// NewIdentity returns the identity mapping over b-bit messages.
func NewIdentity(b int) (*Identity, error) {
	if b < 1 || b > 64 {
		return nil, fmt.Errorf("ecc: identity message bits must be in [1,64], got %d", b)
	}
	return &Identity{b: b}, nil
}

// Length returns b: the message is its own codeword.
func (c *Identity) Length() int { return c.b }

// Column returns 1<<x: codeword bit x is message bit x.
func (c *Identity) Column(x int) uint64 { return 1 << uint(x) }
