package ssr

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/set"
	"repro/internal/simdist"
)

// gob assigns user type ids from a process-global counter in first-encode
// order, and those ids appear verbatim in the encoded bytes. Without
// pinning, a sharded Save running first in the process would shift the
// type id a later single-shard Save writes for publicSnapshot — the bytes
// would depend on call history, breaking the golden-fixture guarantee
// that Save output is a pure function of index state. Allocate every
// snapshot type here in one canonical order: the core snapshot types
// first and publicSnapshot immediately after (matching the order a fresh
// process's first single-shard Save would produce, which is what the
// golden fixture was generated from), then the remaining formats.
func init() {
	core.RegisterSnapshotGobTypes()
	enc := gob.NewEncoder(io.Discard)
	_ = enc.Encode(&publicSnapshot{}) //ssrvet:ignore droppederr -- zero-value encode to io.Discard cannot fail; run for the type-id side effect
	_ = enc.Encode(&tunerTrailer{})   //ssrvet:ignore droppederr -- zero-value encode to io.Discard cannot fail; run for the type-id side effect
	engine.RegisterSnapshotGobTypes()
	_ = enc.Encode(&shardCheckpoint{}) //ssrvet:ignore droppederr -- zero-value encode to io.Discard cannot fail; run for the type-id side effect
}

// persistMagic guards the public snapshot format (which wraps the core
// snapshot with the string dictionary).
const persistMagic = "SSRPUB1\n"

// publicSnapshot is the gob payload of an ssr-level snapshot.
type publicSnapshot struct {
	// Names is the interned-element dictionary in id order (empty for
	// collections built purely with AddIDs).
	Names []string
	// Core is the inner engine snapshot: a bare core snapshot for
	// single-shard indexes (byte-identical to previous releases), or a
	// sharded container (see engine.Save) — Load branches on its magic.
	Core []byte
}

// tunerTrailer is the adaptive-retune state, appended AFTER the
// publicSnapshot value on the same gob stream — and only when the index
// has actually retuned (generation > 0). Never-retuned indexes therefore
// write byte-identical snapshots to previous releases (the golden fixture
// stays valid), and old readers that stop after the first value skip the
// trailer harmlessly. Load treats a clean EOF in its place as a legacy
// snapshot.
type tunerTrailer struct {
	// Generation is the plan generation of the saved cores (how many
	// retunes the index has absorbed).
	Generation uint64
	// BaselineBins is the raw-bin image (simdist.RawBins) of the profile
	// the current plan was derived from; nil when unknown.
	BaselineBins []float64
}

// maxTrailerBins caps a decoded baseline against hostile gob input.
const maxTrailerBins = 1 << 20

// trailerHist reconstructs the baseline histogram (nil when absent).
func (tt *tunerTrailer) trailerHist() *simdist.Histogram {
	if tt == nil || tt.BaselineBins == nil {
		return nil
	}
	return simdist.FromBins(tt.BaselineBins)
}

// decodeTrailer reads an optional tunerTrailer as the stream's next gob
// value. A clean EOF means a legacy (pre-tuner or never-retuned)
// snapshot.
func decodeTrailer(dec *gob.Decoder) (*tunerTrailer, error) {
	var tt tunerTrailer
	if err := dec.Decode(&tt); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, nil
		}
		return nil, fmt.Errorf("ssr: decoding tuner trailer: %w", err)
	}
	if len(tt.BaselineBins) > maxTrailerBins {
		return nil, fmt.Errorf("ssr: tuner trailer carries %d histogram bins (limit %d)", len(tt.BaselineBins), maxTrailerBins)
	}
	return &tt, nil
}

// Save writes the index — including the element dictionary — to w. The
// snapshot reloads with Load into an index that answers queries
// identically.
//
// Capture order matters with concurrent mutation traffic: the engine is
// serialized first and the dictionary read after, and every Add interns
// its elements before touching the engine — so the captured dictionary is
// always a superset of the element ids the captured engine references.
// (The reverse order would let an Add intern-and-insert between the two
// captures, leaving the engine bytes referencing names the dictionary
// never recorded.)
func (ix *Index) Save(w io.Writer) error {
	// Tuner state is captured BEFORE the engine bytes: if a retune swaps
	// between the two captures, the trailer undersells the generation of
	// the (newer) cores it rides with — the benign direction, since the
	// plan itself always comes from the cores and a stale baseline at
	// worst re-triggers a drift check after recovery.
	gen, hist := ix.inner.TuneState()
	var coreBuf bytes.Buffer
	if err := ix.inner.Save(&coreBuf); err != nil {
		return err
	}
	ix.coll.mu.Lock()
	names := ix.coll.dict.NamesInOrder()
	ix.coll.mu.Unlock()
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(persistMagic); err != nil {
		return fmt.Errorf("ssr: writing snapshot header: %w", err)
	}
	enc := gob.NewEncoder(bw)
	if err := enc.Encode(&publicSnapshot{Names: names, Core: coreBuf.Bytes()}); err != nil {
		return fmt.Errorf("ssr: encoding snapshot: %w", err)
	}
	if err := encodeTrailer(enc, gen, hist); err != nil {
		return err
	}
	return bw.Flush()
}

// encodeTrailer writes the tuner trailer after a snapshot value, only once
// the index has retuned.
func encodeTrailer(enc *gob.Encoder, gen uint64, hist *simdist.Histogram) error {
	if gen == 0 {
		return nil
	}
	tt := tunerTrailer{Generation: gen}
	if hist != nil {
		tt.BaselineBins = hist.RawBins()
	}
	if err := enc.Encode(&tt); err != nil {
		return fmt.Errorf("ssr: encoding tuner trailer: %w", err)
	}
	return nil
}

// Load reconstructs an index saved with Save. Sids are preserved: deleted
// sids stay allocated as tombstones (queries never return them, Get/
// QuerySID see them as empty), so sid-addressed callers — including the
// durability layer's log replay — keep working across a save/load cycle.
// Snapshots from before the sid-preserving format load densely renumbered,
// as they always did.
func Load(r io.Reader) (*Index, error) {
	names, inner, err := decodeSnapshot(r)
	if err != nil {
		return nil, err
	}
	coll, err := collectionOf(set.DictionaryFromNames(names), inner)
	if err != nil {
		return nil, err
	}
	return &Index{coll: coll, inner: inner}, nil
}

// decodeSnapshot parses Save's format into the dictionary names and the
// engine, with any retune state adopted.
func decodeSnapshot(r io.Reader) ([]string, *engine.Engine, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(persistMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, nil, fmt.Errorf("ssr: reading snapshot header: %w", err)
	}
	if string(magic) != persistMagic {
		return nil, nil, fmt.Errorf("ssr: not an index snapshot (bad magic %q)", magic)
	}
	dec := gob.NewDecoder(br)
	var snap publicSnapshot
	if err := dec.Decode(&snap); err != nil {
		return nil, nil, fmt.Errorf("ssr: decoding snapshot: %w", err)
	}
	trailer, err := decodeTrailer(dec)
	if err != nil {
		return nil, nil, err
	}
	inner, err := engine.Load(bytes.NewReader(snap.Core))
	if err != nil {
		return nil, nil, err
	}
	if trailer != nil && trailer.Generation > 0 {
		inner.AdoptTuneState(trailer.Generation, trailer.trailerHist())
	}
	return snap.Names, inner, nil
}

// collectionOf builds the collection of a loaded or recovered engine over
// dictionary dict: a sid-indexed view of every set, so QuerySID and Get
// keep working. Tombstoned sids and holes read as empty.
func collectionOf(dict *set.Dictionary, inner *engine.Engine) (*Collection, error) {
	bySID, err := inner.SetsBySID()
	if err != nil {
		return nil, err
	}
	coll := &Collection{dict: dict, sets: make([]set.Set, len(bySID))}
	for sid, s := range bySID {
		if s != nil {
			coll.sets[sid] = *s
		}
	}
	return coll, nil
}
