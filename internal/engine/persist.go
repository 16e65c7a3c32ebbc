// Sharded snapshot container.
//
// A one-shard engine persists as a bare core snapshot (SSRIDX1) —
// byte-identical to the pre-engine format, so old snapshots load and new
// one-shard snapshots are readable by old readers. A sharded engine
// persists as an SSRSHD1 container: the router seed, the global sid
// space, each shard's local→global table, and each shard's own core
// snapshot nested as opaque bytes. Load sniffs the magic and branches, so
// both shapes come back through the same entry point.
package engine

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"fmt"
	"io"

	"repro/internal/core"
)

// shardedMagic guards the sharded container format.
const shardedMagic = "SSRSHD1\n"

// shardedSnapshot is the durable form of a multi-shard engine.
type shardedSnapshot struct {
	// Shards is the shard count; the router needs it to re-derive
	// placement.
	Shards int
	// RouterSeed seeds the sid → shard hash.
	RouterSeed int64
	// NumGlobals is the global sid space (live + tombstoned + holes).
	NumGlobals int
	// Globals[i] is shard i's local→global table, in local sid order.
	Globals [][]uint32
	// Cores[i] is shard i's complete core snapshot (SSRIDX1 bytes).
	Cores [][]byte
}

// Save writes the engine to w. A one-shard engine writes a bare core
// snapshot; a sharded engine writes the SSRSHD1 container. The sharded
// capture holds every shard mutex at once (ascending order), so the
// snapshot is one consistent cut across shards, and reads the global sid
// space afterwards so every captured mapping is covered by it.
func (e *Engine) Save(w io.Writer) error {
	if len(e.shards) == 1 {
		// The pre-engine format: its sids are the core's, which the dense
		// sid rule (Reserve, applyLocked) keeps equal to the global ones.
		return e.loadView().cores[0].Save(w)
	}
	snap := shardedSnapshot{
		Shards:     len(e.shards),
		RouterSeed: e.routerSeed,
		Globals:    make([][]uint32, len(e.shards)),
		Cores:      make([][]byte, len(e.shards)),
	}
	for _, sh := range e.shards {
		sh.mu.Lock()
	}
	// With every shard mutex held the view cannot swap mid-capture, so
	// all shards are saved from one plan generation.
	v := e.loadView()
	var err error
	for si, sh := range e.shards {
		tg := make([]uint32, len(sh.toGlobal))
		copy(tg, sh.toGlobal)
		snap.Globals[si] = tg
		var buf bytes.Buffer
		if err = v.cores[si].Save(&buf); err != nil {
			err = fmt.Errorf("engine: saving shard %d: %w", si, err)
			break
		}
		snap.Cores[si] = buf.Bytes()
	}
	for i := len(e.shards) - 1; i >= 0; i-- {
		e.shards[i].mu.Unlock()
	}
	if err != nil {
		return err
	}
	// After the shard capture: reservations made since can only have
	// grown the space, so every captured global sid is < NumGlobals.
	e.gmu.RLock()
	snap.NumGlobals = len(e.locals)
	e.gmu.RUnlock()

	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(shardedMagic); err != nil {
		return fmt.Errorf("engine: writing snapshot header: %w", err)
	}
	if err := gob.NewEncoder(bw).Encode(&snap); err != nil {
		return fmt.Errorf("engine: encoding snapshot: %w", err)
	}
	return bw.Flush()
}

// ShardSnapshot captures one shard for an independent per-shard
// checkpoint: the shard's core snapshot bytes, its local→global table,
// and the global sid space. The core bytes and the table are captured
// under the shard mutex (one consistent cut of that shard); the global
// space is read afterwards, so it covers every captured mapping. Other
// shards are not touched — per-shard durability checkpoints one shard at
// a time without stalling the rest.
func (e *Engine) ShardSnapshot(si int) (coreBytes []byte, toGlobal []uint32, numGlobals int, err error) {
	sh := e.shards[si]
	sh.mu.Lock()
	ix := e.loadView().cores[si]
	toGlobal = make([]uint32, len(sh.toGlobal))
	copy(toGlobal, sh.toGlobal)
	var buf bytes.Buffer
	err = ix.Save(&buf)
	sh.mu.Unlock()
	if err != nil {
		return nil, nil, 0, fmt.Errorf("engine: saving shard %d: %w", si, err)
	}
	e.gmu.RLock()
	numGlobals = len(e.locals)
	e.gmu.RUnlock()
	return buf.Bytes(), toGlobal, numGlobals, nil
}

// RegisterSnapshotGobTypes pins gob's process-global type-id allocation
// for the sharded container type. See core.RegisterSnapshotGobTypes for
// why: gob ids are assigned in first-encode order and leak into stream
// bytes, so allocation must not depend on whether a sharded or a
// single-shard Save runs first.
func RegisterSnapshotGobTypes() {
	_ = gob.NewEncoder(io.Discard).Encode(&shardedSnapshot{}) // zero-value encode to io.Discard cannot fail; run for the type-id side effect
}

// Load reconstructs an engine from a snapshot written by Save. Bare core
// snapshots (including every pre-engine snapshot) load as one-shard
// engines whose sid tables are the identity; SSRSHD1 containers rebuild
// each shard and re-validate the whole sid mapping against the router.
func Load(r io.Reader) (*Engine, error) {
	br := bufio.NewReader(r)
	magic, err := br.Peek(len(shardedMagic))
	if err != nil {
		return nil, fmt.Errorf("engine: reading snapshot header: %w", err)
	}
	if string(magic) != shardedMagic {
		// One shard: the whole stream is a core snapshot.
		ix, err := core.Load(br)
		if err != nil {
			return nil, err
		}
		identity := make([]uint32, ix.NumAllocated())
		for i := range identity {
			identity[i] = uint32(i)
		}
		return Assemble(0, []*core.Index{ix}, [][]uint32{identity}, len(identity))
	}
	if _, err := br.Discard(len(shardedMagic)); err != nil {
		return nil, fmt.Errorf("engine: reading snapshot header: %w", err)
	}
	var snap shardedSnapshot
	if err := gob.NewDecoder(br).Decode(&snap); err != nil {
		return nil, fmt.Errorf("engine: decoding snapshot: %w", err)
	}
	// The shard count and sid space are bounded by Assemble; a container
	// holds at least two shards, since Save writes one shard bare.
	if snap.Shards < 2 || len(snap.Cores) != snap.Shards || len(snap.Globals) != snap.Shards {
		return nil, fmt.Errorf("engine: snapshot declares %d shards but carries %d cores and %d mappings",
			snap.Shards, len(snap.Cores), len(snap.Globals))
	}
	cores := make([]*core.Index, snap.Shards)
	for si, raw := range snap.Cores {
		ix, err := core.Load(bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("engine: loading shard %d: %w", si, err)
		}
		cores[si] = ix
	}
	return Assemble(snap.RouterSeed, cores, snap.Globals, snap.NumGlobals)
}
