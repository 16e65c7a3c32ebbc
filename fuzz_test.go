package ssr

import (
	"bytes"
	"encoding/gob"
	"testing"
)

// FuzzLoad feeds arbitrary bytes to the public snapshot loader: corrupt or
// truncated snapshots must return an error, never panic, and never
// allocate unboundedly. Mirrors internal/storage's FuzzDecodeCorrupt
// discipline at the top of the persistence stack.
func FuzzLoad(f *testing.F) {
	// Seed with a genuine snapshot (with a tombstone, exercising the
	// sid-preserving layout) so mutations explore near-valid encodings.
	c := bookstore()
	ix, err := Build(c, Options{Budget: 24, MinHashes: 32, Seed: 3})
	if err != nil {
		f.Fatal(err)
	}
	if err := ix.Remove(1); err != nil {
		f.Fatal(err)
	}
	var snap bytes.Buffer
	if err := ix.Save(&snap); err != nil {
		f.Fatal(err)
	}
	f.Add(snap.Bytes())
	f.Add(snap.Bytes()[:len(snap.Bytes())/2])
	f.Add(withCoreTrailer(f, snap.Bytes(), append([]byte("SSRFAM1\n"), 2, 64, 40, 0, 0, 0)))
	f.Add([]byte("SSRPUB1\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		loaded, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		// The rare mutation that still decodes must yield a usable index.
		if _, _, qerr := loaded.Query([]string{"dune"}, 0.5, 1.0); qerr != nil {
			t.Fatalf("loaded index cannot query: %v", qerr)
		}
	})
}

// withCoreTrailer re-wraps a public snapshot with tail appended to its
// core snapshot bytes — the shape of a snapshot whose core carries a
// trailer Load does not read.
func withCoreTrailer(tb testing.TB, pub, tail []byte) []byte {
	tb.Helper()
	var snap publicSnapshot
	if err := gob.NewDecoder(bytes.NewReader(pub[len(persistMagic):])).Decode(&snap); err != nil {
		tb.Fatal(err)
	}
	snap.Core = append(snap.Core, tail...)
	var out bytes.Buffer
	out.WriteString(persistMagic)
	if err := gob.NewEncoder(&out).Encode(&snap); err != nil {
		tb.Fatal(err)
	}
	return out.Bytes()
}
