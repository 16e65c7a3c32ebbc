package ssr

import (
	"io"

	"repro/internal/engine"
	"repro/internal/set"
)

// Save writes the index — including the element dictionary — to w. The
// snapshot reloads with Load into an index that answers queries
// identically.
//
// Capture order matters with concurrent mutation traffic: the engine is
// captured first and the dictionary read after, and every Add interns
// its elements before touching the engine — so the captured dictionary is
// always a superset of the element ids the captured engine references.
// (The reverse order would let an Add intern-and-insert between the two
// captures, leaving the engine parts referencing names the dictionary
// never recorded.)
func (ix *Index) Save(w io.Writer) error { return ix.save(w) }

// saveShard writes durable lane si's checkpoint: Save restricted to shard
// si, captured under that shard's lock only. On a one-shard index it is
// Save's bytes.
func (ix *Index) saveShard(w io.Writer, si int) error { return ix.save(w, si) }

// save writes the image of shards sis (every shard when none is given).
func (ix *Index) save(w io.Writer, sis ...int) error {
	// Tuner state is captured BEFORE the engine parts: if a retune swaps
	// between the two captures, the header undersells the generation of
	// the (newer) cores it rides with — the benign direction, since the
	// plan itself always comes from the cores and a stale baseline at
	// worst re-triggers a drift check after recovery.
	gen, hist := ix.inner.TuneState()
	snap := ix.inner.Capture(sis...)
	ix.coll.mu.Lock()
	snap.Names = ix.coll.dict.NamesInOrder()
	ix.coll.mu.Unlock()
	if gen > 0 {
		snap.PlanGeneration = gen
		if hist != nil {
			snap.BaselineBins = hist.RawBins()
		}
	}
	return engine.Encode(w, &snap)
}

// Load reconstructs an index saved with Save. Sids are preserved: deleted
// sids stay allocated as tombstones (queries never return them, Get/
// QuerySID see them as empty), so sid-addressed callers — including the
// durability layer's log replay — keep working across a save/load cycle.
// Snapshots in the formats of older releases are refused.
func Load(r io.Reader) (*Index, error) {
	img, err := engine.Decode(r)
	if err != nil {
		return nil, err
	}
	inner, err := engine.Join(img)
	if err != nil {
		return nil, err
	}
	return &Index{coll: collectionOf(set.DictionaryFromNames(img.Names), inner), inner: inner}, nil
}

// collectionOf builds the collection of a loaded or recovered engine over
// dictionary dict: a sid-indexed view of every set, so QuerySID and Get
// keep working. Tombstoned sids and holes read as empty.
func collectionOf(dict *set.Dictionary, inner *engine.Engine) *Collection {
	bySID := inner.SetsBySID()
	coll := &Collection{dict: dict, sets: make([]set.Set, len(bySID))}
	for sid, s := range bySID {
		if s != nil {
			coll.sets[sid] = *s
		}
	}
	return coll
}
