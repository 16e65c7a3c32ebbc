package filter

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
		return nil, fmt.Errorf("filter: hadamard message bits must be in [1,20], got %d", b)
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
		return nil, fmt.Errorf("filter: identity message bits must be in [1,64], got %d", b)
	}
	return &Identity{b: b}, nil
}

// Length returns b: the message is its own codeword.
func (c *Identity) Length() int { return c.b }

// Column returns 1<<x: codeword bit x is message bit x.
func (c *Identity) Column(x int) uint64 { return 1 << uint(x) }

// HammingFromJaccard converts a Jaccard similarity to the expected Hamming
// similarity of the embedded vectors under Theorem 1: s_H = (1+s)/2.
func HammingFromJaccard(s float64) float64 { return (1 + s) / 2 }
