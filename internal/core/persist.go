package core

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"

	"repro/internal/minhash"
	"repro/internal/optimize"
	"repro/internal/set"
	"repro/internal/storage"
)

// snapshotMagic guards the persistence format.
const snapshotMagic = "SSRIDX1\n"

// snapshot is the durable form of an index: everything needed to rebuild
// it exactly. Filter-index contents are not stored — they are a pure
// function of (sets, embedding seed, plan, per-FI seeds) and are rebuilt
// deterministically on load. Signatures ARE stored (k uint64s per set), so
// loading skips min-hash signing, the dominant build cost.
type snapshot struct {
	// Embedding parameters. The code is always Hadamard(EmbedBits), the
	// only one Build uses, so it is not stored.
	EmbedK    int
	EmbedBits int
	EmbedSeed int64
	// Storage parameters.
	PageSize       int
	PayloadPerElem int
	DistSeed       int64
	// The next two fields configured a retired on-disk sid locator. They are
	// always written as false and ignored on Load; they stay only because
	// gob's type descriptor, and so every Save byte, lists them.
	DisableBTree   bool
	CountLocatorIO bool
	// Plan is installed verbatim (the optimizer is not re-run).
	Plan optimize.Plan
	// Sets is the live collection in sid order; tombstoned sids are not
	// stored.
	Sets [][]uint64
	// Sigs caches the per-set min-hash signatures, aligned with Sets.
	Sigs [][]uint64
	// SIDs, aligned with Sets, records each live set's original sid, and
	// NumSIDs the total allocated sid space. Gaps are deleted sids; Load
	// reconstructs them as tombstones so sid-addressed replay (the
	// durability layer) stays valid. Legacy snapshots without these fields
	// decode with NumSIDs == 0 and load densely renumbered, as before.
	SIDs    []uint32
	NumSIDs int
}

// Save writes the index to w. See Load. Save holds the read lock for its
// duration, so the snapshot is a consistent point-in-time view even with
// concurrent Insert/Delete traffic.
func (ix *Index) Save(w io.Writer) error {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(snapshotMagic); err != nil {
		return fmt.Errorf("core: writing snapshot header: %w", err)
	}
	snap := snapshot{
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
		elems := make([]uint64, s.Len())
		copy(elems, s.Elems())
		snap.Sets = append(snap.Sets, elems)
		snap.Sigs = append(snap.Sigs, ix.sigs[sid])
		snap.SIDs = append(snap.SIDs, uint32(sid))
		return true
	})
	if err := gob.NewEncoder(bw).Encode(&snap); err != nil {
		return fmt.Errorf("core: encoding snapshot: %w", err)
	}
	return bw.Flush()
}

// RegisterSnapshotGobTypes forces gob's process-global type-id allocation
// for the snapshot types, in one fixed pass. gob numbers user types in
// first-encode order across the whole process, and those ids appear in
// the stream bytes — so without pinning, snapshot BYTES (not just their
// meaning) would depend on which encode happened to run first. Callers
// that promise byte-stable snapshots invoke this from init.
func RegisterSnapshotGobTypes() {
	_ = gob.NewEncoder(io.Discard).Encode(&snapshot{}) // zero-value encode to io.Discard cannot fail; run for the type-id side effect
}

// validate rejects a structurally corrupt snapshot before Load allocates
// for it: signatures against EmbedK, sid order and the sid space. The
// build parameters are Build's to check, which Load ends in.
func (snap *snapshot) validate() error {
	// An empty snapshot (no sets, no allocated sids) is legal: a shard of a
	// partitioned engine can be empty at save time.
	if len(snap.Sigs) != len(snap.Sets) {
		// Legacy snapshots may omit signatures entirely (they are re-signed);
		// anything else is truncation.
		if len(snap.Sigs) != 0 || snap.NumSIDs != 0 {
			return fmt.Errorf("core: snapshot has %d signatures for %d sets", len(snap.Sigs), len(snap.Sets))
		}
	}
	for i, sig := range snap.Sigs {
		if len(sig) != snap.EmbedK {
			return fmt.Errorf("core: snapshot signature %d has %d words, expected %d", i, len(sig), snap.EmbedK)
		}
	}
	if snap.NumSIDs != 0 {
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
	} else if len(snap.SIDs) != 0 {
		return fmt.Errorf("core: snapshot has sids but no sid space")
	}
	return nil
}

// Load reconstructs an index from a snapshot written by Save. The rebuild
// is deterministic: the same embedding family, sampled bit positions and
// plan are restored, and original sids are preserved — deleted sids come
// back as tombstones, so an operation log recorded against the saved index
// replays against the loaded one. (Legacy snapshots without sid metadata
// load densely renumbered.) r must hold exactly one snapshot: any byte
// after the snapshot value is an error.
func Load(r io.Reader) (*Index, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("core: reading snapshot header: %w", err)
	}
	if string(magic) != snapshotMagic {
		return nil, fmt.Errorf("core: not an index snapshot (bad magic %q)", magic)
	}
	var snap snapshot
	if err := gob.NewDecoder(br).Decode(&snap); err != nil {
		return nil, fmt.Errorf("core: decoding snapshot: %w", err)
	}
	// The gob decoder reads exactly the length-prefixed snapshot value off
	// the buffered reader, so anything left is not part of the snapshot —
	// appended data, or a trailer from an older format whose signatures
	// are not the classic min-hashes this Load rebuilds filters from.
	if _, err := br.ReadByte(); err != io.EOF {
		if err == nil {
			return nil, fmt.Errorf("core: unexpected data after snapshot")
		}
		return nil, fmt.Errorf("core: reading past snapshot: %w", err)
	}
	if err := snap.validate(); err != nil {
		return nil, err
	}
	opt := Options{
		Embed:          minhash.Options{K: snap.EmbedK, Bits: snap.EmbedBits, Seed: snap.EmbedSeed},
		PageSize:       snap.PageSize,
		PayloadPerElem: snap.PayloadPerElem,
		DistSeed:       snap.DistSeed,
	}
	plan := snap.Plan
	opt.PlanOverride = &plan

	setSigs := func(sigs [][]uint64) {
		full := make([]minhash.Signature, len(sigs))
		for i, sig := range sigs {
			full[i] = minhash.Signature(sig)
		}
		opt.PrecomputedSignatures = full
	}

	if snap.NumSIDs == 0 {
		// Legacy dense layout.
		sets := make([]set.Set, len(snap.Sets))
		for i, elems := range snap.Sets {
			sets[i] = set.New(elems...)
		}
		if len(snap.Sigs) == len(snap.Sets) {
			setSigs(snap.Sigs)
		}
		return Build(sets, opt)
	}

	// Sid-preserving layout: expand to the full sid space, tombstoning the
	// gaps.
	sets := make([]set.Set, snap.NumSIDs)
	sigs := make([][]uint64, snap.NumSIDs)
	tombs := make([]bool, snap.NumSIDs)
	for i := range tombs {
		tombs[i] = true
	}
	for i, sid := range snap.SIDs {
		sets[sid] = set.New(snap.Sets[i]...)
		sigs[sid] = snap.Sigs[i]
		tombs[sid] = false
	}
	setSigs(sigs)
	opt.Tombstones = tombs
	return Build(sets, opt)
}
