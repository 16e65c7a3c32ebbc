// Snapshot images. A whole one-shard engine persists as a bare core
// snapshot (SSRIDX1), byte-identical to the pre-engine format. Every other
// image is an SSRSHD1 container of shard parts: Save writes every part,
// SaveShard (a durable lane's checkpoint) one. Decode sniffs the magic.
package engine

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"slices"

	"repro/internal/core"
)

// shardedMagic guards the sharded container format.
const shardedMagic = "SSRSHD1\n"

// shardedSnapshot is the durable form of a multi-shard engine, whole or in
// part: the shard count and router seed the router re-derives placement
// from, the global sid space (live + tombstoned + holes), and the captured
// shards in ascending order.
type shardedSnapshot struct {
	Shards     int
	RouterSeed int64
	NumGlobals int
	Parts      []snapshotPart
}

// snapshotPart is one shard: its index, its local→global table in local
// sid order, and its complete core snapshot (SSRIDX1 bytes).
type snapshotPart struct {
	Index   int
	Globals []uint32
	Core    []byte
}

// Save writes the whole engine to w: a bare core snapshot for one shard,
// the SSRSHD1 container with every part otherwise. The sharded capture
// holds every shard mutex at once (ascending order), so the snapshot is
// one consistent cut across shards.
func (e *Engine) Save(w io.Writer) error {
	all := make([]int, len(e.shards))
	for si := range all {
		all[si] = si
	}
	return e.save(w, all)
}

// SaveShard writes shard si alone — the checkpoint of its durable lane.
// On a one-shard engine that is Save's bytes; otherwise it is the SSRSHD1
// container with one part, captured under that shard's mutex only, so a
// lane checkpoints without stalling the other shards.
func (e *Engine) SaveShard(w io.Writer, si int) error { return e.save(w, []int{si}) }

// save writes the parts of the shards sis (ascending).
func (e *Engine) save(w io.Writer, sis []int) error {
	if len(e.shards) == 1 {
		// The pre-engine format: its sids are the core's, which the dense
		// sid rule (Reserve, applyLocked) keeps equal to the global ones.
		return e.loadView().cores[0].Save(w)
	}
	snap := shardedSnapshot{
		Shards:     len(e.shards),
		RouterSeed: e.routerSeed,
		Parts:      make([]snapshotPart, len(sis)),
	}
	for _, si := range sis {
		e.shards[si].mu.Lock()
	}
	// With a shard mutex held the view cannot swap (a swap holds every
	// one), so all captured shards are saved from one plan generation.
	v := e.loadView()
	var err error
	for i, si := range sis {
		var buf bytes.Buffer
		if err = v.cores[si].Save(&buf); err != nil {
			err = fmt.Errorf("engine: saving shard %d: %w", si, err)
			break
		}
		snap.Parts[i] = snapshotPart{Index: si, Globals: slices.Clone(e.shards[si].toGlobal), Core: buf.Bytes()}
	}
	for i := len(sis) - 1; i >= 0; i-- {
		e.shards[sis[i]].mu.Unlock()
	}
	if err != nil {
		return err
	}
	// After the shard capture: reservations made since can only have
	// grown the space, so every captured global sid is < NumGlobals.
	snap.NumGlobals = e.NumAllocated()

	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(shardedMagic); err != nil {
		return fmt.Errorf("engine: writing snapshot header: %w", err)
	}
	if err := gob.NewEncoder(bw).Encode(&snap); err != nil {
		return fmt.Errorf("engine: encoding snapshot: %w", err)
	}
	return bw.Flush()
}

// RegisterSnapshotGobTypes pins gob's process-global type-id allocation
// for the sharded container type. See core.RegisterSnapshotGobTypes for
// why: gob ids are assigned in first-encode order and leak into stream
// bytes, so allocation must not depend on whether a sharded or a
// single-shard Save runs first.
func RegisterSnapshotGobTypes() {
	_ = gob.NewEncoder(io.Discard).Encode(&shardedSnapshot{}) // zero-value encode to io.Discard cannot fail; run for the type-id side effect
}

// Image is a decoded snapshot: the topology it was taken under (Decode
// bounds Shards) and the shard parts it carries, each core loaded.
type Image struct {
	Shards     int
	RouterSeed int64
	NumGlobals int
	Parts      []Part
}

// Part is one shard of an Image.
type Part struct {
	Index   int
	Globals []uint32
	Core    *core.Index
}

// Decode parses a snapshot written by Save or SaveShard. A bare core
// snapshot (including every pre-engine snapshot) decodes as a whole
// one-shard image whose sid table is the identity.
func Decode(r io.Reader) (*Image, error) {
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
		return &Image{Shards: 1, NumGlobals: len(identity), Parts: []Part{{Globals: identity, Core: ix}}}, nil
	}
	if _, err := br.Discard(len(shardedMagic)); err != nil {
		return nil, fmt.Errorf("engine: reading snapshot header: %w", err)
	}
	var snap shardedSnapshot
	if err := gob.NewDecoder(br).Decode(&snap); err != nil {
		return nil, fmt.Errorf("engine: decoding snapshot: %w", err)
	}
	// A container holds at least two shards, since Save writes one shard
	// bare, and at least one part; the sid space is bounded by Assemble.
	if err := CheckShards(snap.Shards); err != nil || snap.Shards < 2 || len(snap.Parts) < 1 || len(snap.Parts) > snap.Shards {
		return nil, fmt.Errorf("engine: snapshot declares %d shards and carries %d parts", snap.Shards, len(snap.Parts))
	}
	img := &Image{Shards: snap.Shards, RouterSeed: snap.RouterSeed, NumGlobals: snap.NumGlobals, Parts: make([]Part, len(snap.Parts))}
	for i, p := range snap.Parts {
		ix, err := core.Load(bytes.NewReader(p.Core))
		if err != nil {
			return nil, fmt.Errorf("engine: loading shard %d: %w", p.Index, err)
		}
		img.Parts[i] = Part{Index: p.Index, Globals: p.Globals, Core: ix}
	}
	return img, nil
}

// Engine assembles the image into an engine. Its parts must cover every
// shard exactly once; Assemble re-validates the whole sid mapping against
// the router.
func (img *Image) Engine() (*Engine, error) {
	cores := make([]*core.Index, img.Shards)
	globals := make([][]uint32, img.Shards)
	for _, p := range img.Parts {
		if p.Index < 0 || p.Index >= img.Shards || cores[p.Index] != nil {
			return nil, fmt.Errorf("engine: snapshot part names shard %d: out of range [0, %d) or repeated", p.Index, img.Shards)
		}
		cores[p.Index], globals[p.Index] = p.Core, p.Globals
	}
	if len(img.Parts) != img.Shards {
		return nil, fmt.Errorf("engine: snapshot carries %d parts for %d shards", len(img.Parts), img.Shards)
	}
	return Assemble(img.RouterSeed, cores, globals, img.NumGlobals)
}

// Load reconstructs an engine from a whole snapshot written by Save.
func Load(r io.Reader) (*Engine, error) {
	img, err := Decode(r)
	if err != nil {
		return nil, err
	}
	return img.Engine()
}
