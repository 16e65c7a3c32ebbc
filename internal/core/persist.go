package core

import (
	"fmt"

	"repro/internal/minhash"
	"repro/internal/optimize"
	"repro/internal/set"
	"repro/internal/storage"
)

// Snapshot is the durable state of an index: everything needed to rebuild
// it exactly. Filter-index contents are not stored — they are a pure
// function of (sets, embedding seed, plan, per-FI seeds) and are rebuilt
// deterministically by Restore. Signatures ARE stored (k uint64s per set),
// so restoring skips min-hash signing, the dominant build cost. The engine
// encodes it, one per shard, inside its snapshot image.
type Snapshot struct {
	// Embedding parameters. The code is always Hadamard(EmbedBits), the
	// only one Build uses, so it is not stored.
	EmbedK    int
	EmbedBits int
	EmbedSeed int64
	// Storage parameters.
	PageSize       int
	PayloadPerElem int
	DistSeed       int64
	// Plan is installed verbatim (the optimizer is not re-run).
	Plan optimize.Plan
	// Sets is the live collection in sid order; tombstoned sids are not
	// stored.
	Sets [][]uint64
	// Sigs caches the per-set min-hash signatures, aligned with Sets.
	Sigs [][]uint64
	// SIDs, aligned with Sets, records each live set's original sid, and
	// NumSIDs the total allocated sid space. Gaps are deleted sids; Restore
	// reconstructs them as tombstones so sid-addressed replay (the
	// durability layer) stays valid.
	SIDs    []uint32
	NumSIDs int
}

// Snapshot captures the index under the read lock, so it is a consistent
// point-in-time view even with concurrent Insert/Delete traffic. The value
// aliases the index's sets and signatures, which are immutable once
// stored, so it stays valid after the lock is released.
func (ix *Index) Snapshot() Snapshot {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	snap := Snapshot{
		EmbedK:         ix.buildOpts.Embed.K,
		EmbedBits:      ix.buildOpts.Embed.Bits,
		EmbedSeed:      ix.buildOpts.Embed.Seed,
		PageSize:       ix.buildOpts.PageSize,
		PayloadPerElem: ix.buildOpts.PayloadPerElem,
		DistSeed:       ix.buildOpts.DistSeed,
		Plan:           ix.plan,
		NumSIDs:        len(ix.sigs),
	}
	ix.store.Scan(nil, func(sid storage.SID, s set.Set) bool {
		snap.Sets = append(snap.Sets, s.Elems())
		snap.Sigs = append(snap.Sigs, ix.sigs[sid])
		snap.SIDs = append(snap.SIDs, uint32(sid))
		return true
	})
	return snap
}

// validate rejects a structurally corrupt snapshot before Restore
// allocates for it: signatures against EmbedK, sid order and the sid
// space. The build parameters are Build's to check, which Restore ends in.
func (snap *Snapshot) validate() error {
	// An empty snapshot (no sets, no allocated sids) is legal: a shard of a
	// partitioned engine can be empty at save time.
	if len(snap.Sigs) != len(snap.Sets) {
		return fmt.Errorf("core: snapshot has %d signatures for %d sets", len(snap.Sigs), len(snap.Sets))
	}
	for i, sig := range snap.Sigs {
		if len(sig) != snap.EmbedK {
			return fmt.Errorf("core: snapshot signature %d has %d words, expected %d", i, len(sig), snap.EmbedK)
		}
	}
	if snap.NumSIDs < 0 || snap.NumSIDs > MaxSIDs {
		return fmt.Errorf("core: snapshot sid space %d out of range", snap.NumSIDs)
	}
	if len(snap.SIDs) != len(snap.Sets) {
		return fmt.Errorf("core: snapshot has %d sids for %d sets", len(snap.SIDs), len(snap.Sets))
	}
	prev := -1
	for i, sid := range snap.SIDs {
		if int(sid) <= prev || int(sid) >= snap.NumSIDs {
			return fmt.Errorf("core: snapshot sid %d at position %d breaks ordering (space %d)", sid, i, snap.NumSIDs)
		}
		prev = int(sid)
	}
	return nil
}

// Restore rebuilds the index snap captured. The rebuild is deterministic:
// the same embedding family, sampled bit positions and plan are restored,
// and original sids are preserved — deleted sids come back as tombstones,
// so an operation log recorded against the captured index replays against
// the restored one.
func Restore(snap *Snapshot) (*Index, error) {
	if err := snap.validate(); err != nil {
		return nil, err
	}
	plan := snap.Plan
	opt := Options{
		Embed:          minhash.Options{K: snap.EmbedK, Bits: snap.EmbedBits, Seed: snap.EmbedSeed},
		PageSize:       snap.PageSize,
		PayloadPerElem: snap.PayloadPerElem,
		DistSeed:       snap.DistSeed,
		PlanOverride:   &plan,
	}
	// Expand to the full sid space, tombstoning the gaps.
	sets := make([]set.Set, snap.NumSIDs)
	sigs := make([]minhash.Signature, snap.NumSIDs)
	tombs := make([]bool, snap.NumSIDs)
	for i := range tombs {
		tombs[i] = true
	}
	for i, sid := range snap.SIDs {
		sets[sid] = set.New(snap.Sets[i]...)
		sigs[sid] = snap.Sigs[i]
		tombs[sid] = false
	}
	opt.PrecomputedSignatures = sigs
	opt.Tombstones = tombs
	return Build(sets, opt)
}
