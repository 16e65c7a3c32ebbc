// Snapshot images. Every image — Save of a whole engine, or a durable
// lane's checkpoint of one shard — is one magic followed by one gob
// Snapshot value: Capture takes the value, Encode writes it, Decode reads
// it back and Join assembles an engine from decoded images.
package engine

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/optimize"
	"repro/internal/simdist"
)

// snapshotMagic guards the snapshot format.
const snapshotMagic = "SSRIMG1\n"

// retiredMagics names the snapshot formats of older releases, which
// Decode refuses by name: the public envelope around a nested engine
// image, the sharded container, and the bare core snapshot.
var retiredMagics = map[string]string{
	"SSRPUB1\n": "the public snapshot envelope",
	"SSRSHD1\n": "the sharded snapshot container",
	"SSRIDX1\n": "the bare core snapshot",
}

// Snapshot is the durable form of an engine, whole or in part: the
// caller's element dictionary, the topology the router re-derives
// placement from, the global sid space (live + tombstoned + holes), the
// tune state, and the captured shards in ascending order.
type Snapshot struct {
	// Names is the public layer's element dictionary in id order; the
	// engine only carries it.
	Names      []string
	Shards     int
	RouterSeed int64
	NumGlobals int
	// PlanGeneration counts the retunes the saved cores absorbed, and
	// BaselineBins is the raw-bin image (simdist.RawBins) of the profile
	// their plan was derived from. A never-retuned index leaves both zero,
	// so gob writes neither.
	PlanGeneration uint64
	BaselineBins   []float64
	Parts          []SnapshotPart
}

// SnapshotPart is one shard: its index, its local→global table in local
// sid order, and its core's durable state.
type SnapshotPart struct {
	Index   int
	Globals []uint32
	Core    core.Snapshot
}

// gob assigns type ids from a process-global counter in first-use order,
// and the ids appear in the encoded bytes. Allocating the snapshot types
// here, before any image is encoded or decoded, makes every image's bytes
// a pure function of the index state, whatever the process did before.
func init() {
	_ = gob.NewEncoder(io.Discard).Encode(&Snapshot{}) // zero-value encode to io.Discard cannot fail; run for the type-id side effect
}

// Capture takes the snapshot of shards sis (every shard when none is
// given), each under its shard mutex and all of them held at once
// (ascending order), so the parts are one consistent cut. A lane's
// checkpoint captures its one shard, stalling no other. Names and the
// tune state are the caller's to fill.
func (e *Engine) Capture(sis ...int) Snapshot {
	if len(sis) == 0 {
		sis = make([]int, len(e.shards))
		for si := range sis {
			sis[si] = si
		}
	}
	snap := Snapshot{Shards: len(e.shards), RouterSeed: e.routerSeed, Parts: make([]SnapshotPart, len(sis))}
	for _, si := range sis {
		e.shards[si].mu.Lock()
	}
	// With a shard mutex held the view cannot swap (a swap holds every
	// one), so all captured shards come from one plan generation.
	v := e.loadView()
	for i, si := range sis {
		// toGlobal is append-only and its entries immutable, so the part
		// may alias it, as the core snapshot aliases the core's sets.
		snap.Parts[i] = SnapshotPart{Index: si, Globals: e.shards[si].toGlobal, Core: v.cores[si].Snapshot()}
	}
	// Under the held mutexes every captured global sid is below the sid
	// space (applyLocked grows it before releasing its shard), and a
	// one-shard space, which grows only under that shard's mutex, is
	// exactly the part's table.
	snap.NumGlobals = e.NumAllocated()
	for i := len(sis) - 1; i >= 0; i-- {
		e.shards[sis[i]].mu.Unlock()
	}
	return snap
}

// Encode writes snap as an image: the magic, then the one gob value.
func Encode(w io.Writer, snap *Snapshot) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(snapshotMagic); err != nil {
		return fmt.Errorf("engine: writing snapshot header: %w", err)
	}
	if err := gob.NewEncoder(bw).Encode(snap); err != nil {
		return fmt.Errorf("engine: encoding snapshot: %w", err)
	}
	return bw.Flush()
}

// Save writes every shard of the engine to w, with no dictionary and no
// tune state.
func (e *Engine) Save(w io.Writer) error {
	snap := e.Capture()
	return Encode(w, &snap)
}

// Image is a decoded snapshot: its header and the shard parts it
// carries, each core restored.
type Image struct {
	Names          []string
	Shards         int
	RouterSeed     int64
	NumGlobals     int
	PlanGeneration uint64
	// Baseline is the profile the plan was derived from (nil when the
	// image carries none).
	Baseline *simdist.Histogram
	Parts    []Part
}

// Part is one shard of an Image.
type Part struct {
	Index   int
	Globals []uint32
	Core    *core.Index
}

// Decode parses an image written by Encode. r must hold exactly one: any
// byte after the snapshot value is an error. The formats of older
// releases are refused by name.
func Decode(r io.Reader) (*Image, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("engine: reading snapshot header: %w", err)
	}
	if string(magic) != snapshotMagic {
		if what, ok := retiredMagics[string(magic)]; ok {
			return nil, fmt.Errorf("engine: the snapshot is in the %s format of older releases (%s), which this release no longer reads; rebuild the index from its sets", magic[:len(magic)-1], what)
		}
		return nil, fmt.Errorf("engine: not an index snapshot (bad magic %q)", magic)
	}
	var snap Snapshot
	if err := gob.NewDecoder(br).Decode(&snap); err != nil {
		return nil, fmt.Errorf("engine: decoding snapshot: %w", err)
	}
	// The gob decoder reads exactly the length-prefixed value off the
	// buffered reader, so anything left is not part of the snapshot.
	if _, err := br.ReadByte(); err != io.EOF {
		if err == nil {
			return nil, fmt.Errorf("engine: unexpected data after snapshot")
		}
		return nil, fmt.Errorf("engine: reading past snapshot: %w", err)
	}
	// An image holds at least one part; the sid space is bounded by
	// Assemble.
	if err := CheckShards(snap.Shards); err != nil || len(snap.Parts) < 1 || len(snap.Parts) > snap.Shards {
		return nil, fmt.Errorf("engine: snapshot declares %d shards and carries %d parts", snap.Shards, len(snap.Parts))
	}
	if len(snap.BaselineBins) > simdist.MaxBins {
		return nil, fmt.Errorf("engine: snapshot carries %d histogram bins (limit %d)", len(snap.BaselineBins), simdist.MaxBins)
	}
	img := &Image{
		Names:          snap.Names,
		Shards:         snap.Shards,
		RouterSeed:     snap.RouterSeed,
		NumGlobals:     snap.NumGlobals,
		PlanGeneration: snap.PlanGeneration,
		Parts:          make([]Part, len(snap.Parts)),
	}
	if snap.BaselineBins != nil {
		img.Baseline = simdist.FromBins(snap.BaselineBins)
	}
	for i := range snap.Parts {
		p := &snap.Parts[i]
		ix, err := core.Restore(&p.Core)
		if err != nil {
			return nil, fmt.Errorf("engine: loading shard %d: %w", p.Index, err)
		}
		img.Parts[i] = Part{Index: p.Index, Globals: p.Globals, Core: ix}
	}
	return img, nil
}

// Join assembles an engine from the parts imgs carry: one whole image's
// parts (Load), or every durable lane's one part (recovery, which checks
// each lane against the MANIFEST's topology first). The parts must cover
// every shard exactly once; the sid space is the largest any image
// observed, and Assemble re-validates the whole sid mapping against the
// router.
//
// Lanes checkpoint independently, so a crash between a retune and the
// last lane's next checkpoint leaves parts from different plan
// generations. The highest generation wins (it is the one a completed
// retune installed everywhere): stale parts are rebuilt in place with the
// winner's plan, restoring the cross-shard plan identity that
// scatter-gather correctness rests on.
func Join(imgs ...*Image) (*Engine, error) {
	var win *Image
	for _, img := range imgs {
		if img.PlanGeneration > 0 && (win == nil || img.PlanGeneration > win.PlanGeneration) {
			win = img
		}
	}
	var winPlan optimize.Plan
	if win != nil {
		winPlan = win.Parts[0].Core.Plan()
	}
	n, seed := imgs[0].Shards, imgs[0].RouterSeed
	cores := make([]*core.Index, n)
	globals := make([][]uint32, n)
	numGlobals, parts := 0, 0
	for _, img := range imgs {
		numGlobals = max(numGlobals, img.NumGlobals)
		for _, p := range img.Parts {
			if p.Index < 0 || p.Index >= n || cores[p.Index] != nil {
				return nil, fmt.Errorf("engine: snapshot part names shard %d: out of range [0, %d) or repeated", p.Index, n)
			}
			if win != nil && img.PlanGeneration != win.PlanGeneration {
				csets, csigs, ctombs := p.Core.CaptureRebuild()
				sopt := p.Core.BuildOptions()
				planCopy := winPlan
				sopt.PlanOverride = &planCopy
				sopt.Distribution = win.Baseline
				sopt.PrecomputedSignatures = csigs
				sopt.Tombstones = ctombs
				rebuilt, err := core.Build(csets, sopt)
				if err != nil {
					return nil, fmt.Errorf("engine: rebuilding stale shard %d onto plan generation %d: %w", p.Index, win.PlanGeneration, err)
				}
				p.Core = rebuilt
			}
			cores[p.Index], globals[p.Index] = p.Core, p.Globals
			parts++
		}
	}
	if parts != n {
		return nil, fmt.Errorf("engine: snapshot carries %d parts for %d shards", parts, n)
	}
	e, err := Assemble(seed, cores, globals, numGlobals)
	if err != nil {
		return nil, err
	}
	if win != nil {
		e.setView(win.PlanGeneration, cores, win.Baseline)
	}
	return e, nil
}

// Load reconstructs an engine from a whole image written by Save.
func Load(r io.Reader) (*Engine, error) {
	img, err := Decode(r)
	if err != nil {
		return nil, err
	}
	return Join(img)
}
