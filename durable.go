package ssr

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/recovery"
	"repro/internal/set"
	"repro/internal/simdist"
	"repro/internal/wal"
)

// SyncMode selects when logged mutations are forced to stable storage.
type SyncMode int

const (
	// SyncAlways fsyncs the log after every mutation: nothing acknowledged
	// is ever lost. The default.
	SyncAlways SyncMode = iota
	// SyncInterval fsyncs at most once per DurableOptions.SyncEvery: crash
	// loss is bounded by roughly one interval of mutations.
	SyncInterval
	// SyncNever leaves flushing to the OS: fastest, widest loss window.
	// Recovery is still always clean — only the amount of replayable tail
	// differs.
	SyncNever
)

// String names the mode with the same spellings ParseSyncMode accepts.
func (m SyncMode) String() string { return wal.Policy(m).String() }

// ParseSyncMode maps the flag spellings "always", "interval", "never".
func ParseSyncMode(s string) (SyncMode, error) {
	p, err := wal.ParsePolicy(s)
	return SyncMode(p), err
}

// DurableOptions tunes the durability layer of OpenDurable/CreateDurable.
// The zero value is a safe default: fsync per mutation, 8MB checkpoint
// threshold, one spare generation retained. On a sharded index every
// option applies per shard (each shard runs its own log and checkpoint
// cycle).
type DurableOptions struct {
	// Sync is the log's fsync policy.
	Sync SyncMode
	// SyncEvery is the SyncInterval period (default 100ms).
	SyncEvery time.Duration
	// CheckpointBytes triggers an automatic checkpoint (snapshot + log
	// rotation + compaction) once the live log exceeds this size. 0 selects
	// an 8MB default; negative disables automatic checkpoints (explicit
	// Checkpoint/Close still rotate).
	CheckpointBytes int64
	// Keep is how many generations before the current one compaction
	// retains (default 1, so a damaged newest checkpoint still recovers
	// through its predecessor plus the chained logs).
	Keep int
	// PreallocBytes enables zero-fill preallocation of log segments in
	// chunks of this many bytes: per-mutation syncs become metadata-free
	// fdatasync calls, which cost less and — decisively for a sharded index
	// — overlap across shard logs instead of serializing through the
	// filesystem journal. 0 disables (the legacy append+fsync behaviour);
	// recovery semantics are identical either way.
	PreallocBytes int64
}

func (o DurableOptions) recoveryOptions(dir string) recovery.Options {
	return recovery.Options{
		Dir:           dir,
		Sync:          wal.Policy(o.Sync),
		SyncEvery:     o.SyncEvery,
		CompactBytes:  o.CheckpointBytes,
		Keep:          o.Keep,
		PreallocBytes: o.PreallocBytes,
	}
}

// ErrNoDurableState reports that OpenDurable found nothing to open; use
// CreateDurable to bootstrap the directory from a built collection.
var ErrNoDurableState = errors.New("ssr: durability directory holds no state")

// manifestName names the file that commits a sharded layout (see
// durableLayout).
const manifestName = "MANIFEST"

// durableManifest is the JSON body of the MANIFEST file. Version gates
// the whole image format: a reader refuses versions it does not know
// (the image was written by a newer release and may rely on invariants
// this code predates) but tolerates unknown FIELDS within a known
// version, so additive evolution needs no version bump.
type durableManifest struct {
	Version    int   `json:"version"`
	Shards     int   `json:"shards"`
	RouterSeed int64 `json:"router_seed"`
}

// manifestVersion is what this release writes; manifestMaxVersion is the
// newest version it can read. They are equal today — the constants exist
// so a future writer bump is one edit and the reader-side error below
// stays honest.
const (
	manifestVersion    = 1
	manifestMaxVersion = 1
)

func shardDirPath(dir string, si int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%03d", si))
}

// readRawManifest returns the MANIFEST bytes, or nil when the directory
// has none (the legacy single-shard layout, or no state at all).
func readRawManifest(dir string) ([]byte, error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("ssr: reading durable manifest: %w", err)
	}
	return raw, nil
}

// parseManifest validates raw MANIFEST bytes.
func parseManifest(raw []byte) (*durableManifest, error) {
	var man durableManifest
	if err := json.Unmarshal(raw, &man); err != nil {
		return nil, fmt.Errorf("ssr: parsing durable manifest: %w", err)
	}
	if man.Version < 1 || man.Version > manifestMaxVersion {
		return nil, fmt.Errorf("ssr: durable manifest version %d is not supported (this build reads versions 1 through %d; the image was written by a newer release — upgrade this binary, it cannot safely interpret the layout)",
			man.Version, manifestMaxVersion)
	}
	if man.Shards < 2 || man.Shards > engine.MaxShards {
		return nil, fmt.Errorf("ssr: durable manifest shard count %d out of range [2, %d]", man.Shards, engine.MaxShards)
	}
	return &man, nil
}

// readLayout returns dir's layout: sharded when it holds a MANIFEST, flat
// otherwise (the legacy single-shard layout, or no state at all).
func readLayout(dir string) (durableLayout, error) {
	raw, err := readRawManifest(dir)
	if err != nil || raw == nil {
		return durableLayout{dir: dir}, err
	}
	man, err := parseManifest(raw)
	return durableLayout{dir: dir, man: man}, err
}

// writeManifest persists the manifest as the LAST step of a sharded
// bootstrap — its presence is the commit point that flips the directory
// from "no state" to "sharded state".
func writeManifest(dir string, man durableManifest) error {
	raw, err := json.Marshal(man)
	if err != nil {
		return fmt.Errorf("ssr: encoding durable manifest: %w", err)
	}
	return commitManifest(dir, append(raw, '\n'))
}

// commitManifest publishes raw MANIFEST bytes atomically (write-temp +
// rename).
func commitManifest(dir string, raw []byte) error {
	tmp := filepath.Join(dir, manifestName+".tmp")
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return fmt.Errorf("ssr: writing durable manifest: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, manifestName)); err != nil {
		return fmt.Errorf("ssr: committing durable manifest: %w", err)
	}
	return nil
}

// durableShard is one shard's logging lane. Its mutex serializes that
// shard's mutations end to end — apply to the in-memory shard, then
// append to that shard's log — so per-shard log order always equals
// per-shard apply order, the invariant replay depends on. Different
// shards' lanes never contend.
type durableShard struct {
	mu  sync.Mutex
	log *recovery.Log
}

// durable is the logging side of a durable Index: one lane per shard, in
// the directory durableLayout names.
type durable struct {
	closed atomic.Bool
	shards []*durableShard
	dir    string
	// repl tracks in-flight sid reservations for the replication
	// watermark; src is the lazily created ReplicationSource handle.
	repl    replTracker
	srcOnce sync.Once
	src     *ReplicationSource
}

// HasDurableState reports whether dir already holds durable index state —
// the open-vs-bootstrap decision for servers and CLIs. Both layouts
// count: a sharded MANIFEST or legacy flat checkpoint/log files.
func HasDurableState(dir string) (bool, error) {
	if raw, err := readRawManifest(dir); err != nil || raw != nil {
		return raw != nil, err
	}
	return recovery.DirHasState(dir)
}

// shardCheckpointMagic guards the per-shard checkpoint payload format.
const shardCheckpointMagic = "SSRSHC1\n"

// shardCheckpoint is the payload of one shard's checkpoint file: that
// shard's core snapshot plus everything needed to stitch it back into the
// engine — the shard topology, the local→global table, the global sid
// space, and the element dictionary. Every shard carries the full
// dictionary: dictionaries are append-only with dense ids, so any capture
// is a prefix of any later capture, and recovery simply keeps the longest
// one across shards (a superset of what every shard's core references,
// because each Save captures its core bytes before its Names).
type shardCheckpoint struct {
	Shards     int
	ShardIndex int
	RouterSeed int64
	NumGlobals int
	Globals    []uint32
	Names      []string
	Core       []byte
}

// saveShardCheckpoint writes shard si's checkpoint payload. Retuned
// indexes append a tunerTrailer after the shardCheckpoint value (same
// optional-second-gob-value convention as the public snapshot format), so
// never-retuned checkpoints stay byte-identical to previous releases.
func (ix *Index) saveShardCheckpoint(w io.Writer, si int) error {
	// Captured before the shard bytes; see Index.Save for why this
	// ordering is the benign one under a concurrent retune.
	gen, hist := ix.inner.TuneState()
	coreBytes, toGlobal, numGlobals, err := ix.inner.ShardSnapshot(si)
	if err != nil {
		return err
	}
	ix.coll.mu.Lock()
	names := ix.coll.dict.NamesInOrder()
	ix.coll.mu.Unlock()
	cp := shardCheckpoint{
		Shards:     ix.inner.NumShards(),
		ShardIndex: si,
		RouterSeed: ix.inner.RouterSeed(),
		NumGlobals: numGlobals,
		Globals:    toGlobal,
		Names:      names,
		Core:       coreBytes,
	}
	if _, err := io.WriteString(w, shardCheckpointMagic); err != nil {
		return fmt.Errorf("ssr: writing shard checkpoint header: %w", err)
	}
	enc := gob.NewEncoder(w)
	if err := enc.Encode(&cp); err != nil {
		return fmt.Errorf("ssr: encoding shard checkpoint: %w", err)
	}
	return encodeTrailer(enc, gen, hist)
}

// loadShardCheckpoint parses one shard's checkpoint payload. The trailer
// is nil for checkpoints written before any retune (or by older code).
func loadShardCheckpoint(r io.Reader) (*shardCheckpoint, *tunerTrailer, error) {
	magic := make([]byte, len(shardCheckpointMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, nil, fmt.Errorf("ssr: reading shard checkpoint header: %w", err)
	}
	if string(magic) != shardCheckpointMagic {
		return nil, nil, fmt.Errorf("ssr: not a shard checkpoint (bad magic %q)", magic)
	}
	dec := gob.NewDecoder(r)
	var cp shardCheckpoint
	if err := dec.Decode(&cp); err != nil {
		return nil, nil, fmt.Errorf("ssr: decoding shard checkpoint: %w", err)
	}
	trailer, err := decodeTrailer(dec)
	if err != nil {
		return nil, nil, err
	}
	return &cp, trailer, nil
}

// durableLayout is everything a durability directory's shape decides:
// where each lane's generation chain lives, how its checkpoints are
// encoded, and whether a MANIFEST commits the layout. A one-shard index
// keeps the flat layout of previous releases — checkpoint-*.snap and
// wal-*.log directly in the directory, the checkpoint payload exactly
// Save's bytes. A sharded index has a MANIFEST naming the shard count and
// router seed, and one shard-NNN/ lane per shard checkpointing a
// shardCheckpoint; shard logs fsync and compact without coordinating,
// which is where the sharded write throughput comes from.
type durableLayout struct {
	dir string
	man *durableManifest // nil for the flat layout
}

func (l durableLayout) lanes() int {
	if l.man == nil {
		return 1
	}
	return l.man.Shards
}

func (l durableLayout) laneDir(si int) string {
	if l.man == nil {
		return l.dir
	}
	return shardDirPath(l.dir, si)
}

// save returns lane si's checkpoint encoder.
func (l durableLayout) save(ix *Index, si int) func(io.Writer) error {
	if l.man == nil {
		return ix.Save
	}
	return func(w io.Writer) error { return ix.saveShardCheckpoint(w, si) }
}

// recoveredLane is what recovery feeds one lane's hooks before the index
// exists: the decoded checkpoint and the buffered log tail.
type recoveredLane struct {
	names   []string
	eng     *engine.Engine   // flat layout: the checkpointed engine
	cp      *shardCheckpoint // sharded layout: this shard's checkpoint
	trailer *tunerTrailer
	recs    []wal.Record
}

// decode parses lane si's checkpoint payload.
func (l durableLayout) decode(r io.Reader, si int) (recoveredLane, error) {
	if l.man == nil {
		names, eng, err := decodeSnapshot(r)
		return recoveredLane{names: names, eng: eng}, err
	}
	cp, trailer, err := loadShardCheckpoint(r)
	if err != nil {
		return recoveredLane{}, err
	}
	if m := l.man; cp.Shards != m.Shards || cp.ShardIndex != si || cp.RouterSeed != m.RouterSeed {
		return recoveredLane{}, fmt.Errorf("ssr: shard checkpoint topology (%d shards, index %d, seed %d) disagrees with manifest (%d shards, index %d, seed %d)",
			cp.Shards, cp.ShardIndex, cp.RouterSeed, m.Shards, si, m.RouterSeed)
	}
	return recoveredLane{cp: cp, trailer: trailer}, nil
}

// openLanes opens every lane's generation chain through the hooks h
// builds for it. On create each lane must be empty and gets its first
// checkpoint; otherwise each must hold state.
func (l durableLayout) openLanes(opt DurableOptions, create bool, h func(si int) recovery.Hooks) ([]*durableShard, error) {
	lanes := make([]*durableShard, 0, l.lanes())
	fail := func(err error) ([]*durableShard, error) {
		return nil, errors.Join(err, closeLanes(lanes))
	}
	for si := 0; si < l.lanes(); si++ {
		dir := l.laneDir(si)
		log, found, err := recovery.Open(opt.recoveryOptions(dir), h(si))
		if err != nil {
			return fail(fmt.Errorf("ssr: recovering %s: %w", dir, err))
		}
		lanes = append(lanes, &durableShard{log: log})
		switch {
		case create:
			// The create hooks refuse to load, so a lane that is not empty
			// (a creator lost the bootstrap race) failed Open above.
			if err := log.Checkpoint(); err != nil {
				return fail(fmt.Errorf("ssr: checkpointing %s: %w", dir, err))
			}
		case !found && l.man == nil:
			return fail(ErrNoDurableState)
		case !found:
			return fail(fmt.Errorf("ssr: %s holds no durable state (the manifest promises %d shards; the directory is corrupt or was partially copied)", dir, l.man.Shards))
		}
	}
	return lanes, nil
}

func closeLanes(lanes []*durableShard) error {
	var errs []error
	for _, sh := range lanes {
		errs = append(errs, sh.log.Close())
	}
	return errors.Join(errs...)
}

// OpenDurable opens the durable index stored in dir: it loads the newest
// valid checkpoint of each lane (one lane per shard), replays the log
// tails (stopping cleanly at a torn or corrupt frame), and returns an
// index identical to the pre-crash state up to the sync horizon of
// opt.Sync. Mutations on the returned index are logged before they are
// acknowledged; call Close to flush a final checkpoint and release the
// logs. If dir holds no state the error is ErrNoDurableState.
//
// Each lane recovers independently, but the index needs every lane's
// checkpoint, so the hooks only buffer what recovery feeds them. Once
// every lane is open the index is assembled and the buffered tails replay
// through apply.
func OpenDurable(dir string, opt DurableOptions) (*Index, error) {
	lay, err := readLayout(dir)
	if err != nil {
		return nil, err
	}
	ix := &Index{}
	lanes := make([]recoveredLane, lay.lanes())
	shards, err := lay.openLanes(opt, false, func(si int) recovery.Hooks {
		return recovery.Hooks{
			// A fallback to an older generation re-enters Load; the fresh
			// lane value drops everything from the rejected generation.
			Load: func(r io.Reader) (err error) {
				lanes[si], err = lay.decode(r, si)
				return err
			},
			Apply: func(rec wal.Record) error {
				lanes[si].recs = append(lanes[si].recs, rec)
				return nil
			},
			Save: lay.save(ix, si),
		}
	})
	if err != nil {
		return nil, err
	}
	if err := ix.recover(lay, lanes); err != nil {
		return nil, errors.Join(err, closeLanes(shards))
	}
	ix.dur = &durable{shards: shards, dir: dir}
	return ix, nil
}

// recover assembles the index from the lanes' checkpoints, then replays
// their buffered tails as a k-way merge by sid, preserving each lane's
// internal order. Per-lane order is the only correctness requirement
// (every record's sid is owned by the lane whose log carries it), but the
// merge also re-interns replayed elements in global sid order — the order
// a sequential writer interned them — so recovering a sequential history
// is bit-identical to never crashing.
func (ix *Index) recover(lay durableLayout, lanes []recoveredLane) error {
	names, eng := lanes[0].names, lanes[0].eng
	if lay.man != nil {
		var err error
		if names, eng, err = assembleShards(*lay.man, lanes); err != nil {
			return err
		}
	}
	ix.coll, ix.inner = &Collection{dict: set.DictionaryFromNames(names)}, eng
	heads := make([]int, len(lanes))
	for {
		best := -1
		for si := range lanes {
			if heads[si] >= len(lanes[si].recs) {
				continue
			}
			if best < 0 || lanes[si].recs[heads[si]].SID < lanes[best].recs[heads[best]].SID {
				best = si
			}
		}
		if best < 0 {
			break
		}
		rec := lanes[best].recs[heads[best]]
		heads[best]++
		if err := ix.apply(best, rec); err != nil {
			return fmt.Errorf("ssr: replaying shard %d %s of sid %d: %w", best, rec.Op, rec.SID, err)
		}
	}
	// The view is built once the tails are in, so a replayed delete reads
	// as empty exactly as a checkpointed one does.
	coll, err := collectionOf(ix.coll.dict, eng)
	ix.coll = coll
	return err
}

// assembleShards builds a sharded engine from its shards' checkpoints.
// The longest dictionary wins (append-only prefix property), the sid
// space is the max any shard observed, and the router seed is
// re-validated against every mapping inside Assemble.
func assembleShards(man durableManifest, lanes []recoveredLane) ([]string, *engine.Engine, error) {
	var names []string
	numGlobals := 0
	cores := make([]*core.Index, len(lanes))
	globals := make([][]uint32, len(lanes))
	for si := range lanes {
		cp := lanes[si].cp
		if len(cp.Names) > len(names) {
			names = cp.Names
		}
		if cp.NumGlobals > numGlobals {
			numGlobals = cp.NumGlobals
		}
		cix, err := core.Load(bytes.NewReader(cp.Core))
		if err != nil {
			return nil, nil, fmt.Errorf("ssr: loading shard %d checkpoint: %w", si, err)
		}
		cores[si] = cix
		globals[si] = cp.Globals
	}
	// Shards checkpoint independently, so a crash between a retune and the
	// last shard's next checkpoint leaves checkpoints from different plan
	// generations on disk. The highest generation wins (it is the one a
	// completed retune installed everywhere): stale shards are rebuilt in
	// place with the winner's plan, restoring the cross-shard plan
	// identity that scatter-gather correctness rests on.
	winGen, winSi := uint64(0), -1
	for si := range lanes {
		if tt := lanes[si].trailer; tt != nil && tt.Generation > winGen {
			winGen, winSi = tt.Generation, si
		}
	}
	var winHist *simdist.Histogram
	if winSi >= 0 {
		winHist = lanes[winSi].trailer.trailerHist()
		winPlan := cores[winSi].Plan()
		for si := range cores {
			if tt := lanes[si].trailer; tt != nil && tt.Generation == winGen {
				continue
			}
			csets, csigs, ctombs, err := cores[si].CaptureRebuild()
			if err != nil {
				return nil, nil, fmt.Errorf("ssr: capturing stale shard %d for plan normalization: %w", si, err)
			}
			sopt := cores[si].BuildOptions()
			planCopy := winPlan
			sopt.PlanOverride = &planCopy
			sopt.Distribution = winHist
			if cores[si].SigningConfig().IsClassic64() {
				sopt.PrecomputedSignatures = csigs
			} else {
				// Captured signatures are the stored packed words; feed
				// them back through the packed channel so the rebuild
				// neither re-signs nor misreads them as full classic ones.
				packed := make([][]uint64, len(csigs))
				for i, s := range csigs {
					packed[i] = s
				}
				sopt.PackedSignatures = packed
			}
			sopt.Tombstones = ctombs
			rebuilt, err := core.Build(csets, sopt)
			if err != nil {
				return nil, nil, fmt.Errorf("ssr: rebuilding stale shard %d onto plan generation %d: %w", si, winGen, err)
			}
			cores[si] = rebuilt
		}
	}
	eng, err := engine.Assemble(man.RouterSeed, cores, globals, numGlobals)
	if err != nil {
		return nil, nil, err
	}
	if winGen > 0 {
		eng.AdoptTuneState(winGen, winHist)
	}
	return names, eng, nil
}

// CreateDurable builds an index over the collection (as Build does) and
// bootstraps dir with its first checkpoint — per shard, when
// bopt.Shards > 1, committing the layout with a MANIFEST only after every
// shard's checkpoint is on disk. It refuses to run on a directory that
// already holds durable state — open that with OpenDurable instead.
func CreateDurable(dir string, c *Collection, bopt Options, dopt DurableOptions) (*Index, error) {
	has, err := HasDurableState(dir)
	if err != nil {
		return nil, err
	}
	if has {
		return nil, fmt.Errorf("ssr: %s already holds durable state (use OpenDurable)", dir)
	}
	// Auto-tuning starts only after the durable lanes are installed: the
	// background loop checkpoints after a swap, which needs ix.dur in
	// place (and its publication to happen-before the loop's first tick).
	autoTune := bopt.AutoTune
	bopt.AutoTune = false
	ix, err := Build(c, bopt)
	if err != nil {
		return nil, err
	}
	lay := durableLayout{dir: dir}
	if n := ix.inner.NumShards(); n > 1 {
		lay.man = &durableManifest{Version: manifestVersion, Shards: n, RouterSeed: ix.inner.RouterSeed()}
	}
	shards, err := lay.openLanes(dopt, true, func(si int) recovery.Hooks {
		refuse := fmt.Errorf("ssr: %s already holds durable state", lay.laneDir(si))
		return recovery.Hooks{
			Load:  func(io.Reader) error { return refuse },
			Apply: func(wal.Record) error { return refuse },
			Save:  lay.save(ix, si),
		}
	})
	if err != nil {
		return nil, err
	}
	if lay.man != nil {
		if err := writeManifest(dir, *lay.man); err != nil {
			return nil, errors.Join(err, closeLanes(shards))
		}
	}
	ix.dur = &durable{shards: shards, dir: dir}
	if autoTune {
		if err := ix.EnableAutoTune(bopt.TunePolicy); err != nil {
			return nil, errors.Join(err, ix.Close())
		}
	}
	return ix, nil
}

// errClosed is the uniform mutation error after Close.
func errClosed() error { return fmt.Errorf("ssr: index is closed") }

// apply is the one write path: every mutation — a live durable write, a
// replayed log record, a streamed follower record — is a WAL record
// applied here to lane si. An insert interns the record's elements in
// their logged order (so replay reproduces the live dictionary ids),
// applies the set to the engine as rec.SID and records it in the
// collection view. A delete tombstones the sid; the live collection view
// keeps the removed set's content (see Index.Sets). On a durable index
// the caller holds lane si.
//
// The collection lock wraps only the two leaf steps, never the engine
// call, and the set is interned before the engine sees it: Save captures
// engine bytes first and names after, so the captured dictionary is
// always a superset of what the captured engine references.
func (ix *Index) apply(si int, rec wal.Record) error {
	switch rec.Op {
	case wal.OpInsert:
		s := ix.coll.intern(rec.Elements)
		if err := ix.inner.Apply(si, rec.SID, s); err != nil {
			return err
		}
		ix.coll.record(int(rec.SID), s)
	case wal.OpDelete:
		if want := ix.inner.ShardOf(rec.SID); want != si {
			return fmt.Errorf("ssr: sid %d routes to shard %d, not %d", rec.SID, want, si)
		}
		if err := ix.inner.Delete(rec.SID); err != nil {
			return err
		}
	default:
		return fmt.Errorf("ssr: cannot apply %s record", rec.Op)
	}
	return nil
}

// withLane reserves the next insert's sid and runs fn with the sid's lane
// locked, registered with the replication tracker until fn returns.
//
// This holds the one shard-count branch of the write lane. With several
// lanes the sid is reserved first, because it names the lane to lock.
// With one lane the lane is locked first: a one-shard engine's Reserve
// allocates nothing — its global sids are its core sids, which the flat
// layout's checkpoint (a plain Save, with no sid map) depends on — so
// only the lane lock keeps two writers from reserving the same sid.
func (d *durable) withLane(ix *Index, fn func(sh *durableShard, g uint32, si int) error) error {
	if len(d.shards) > 1 {
		tok, g, si := d.repl.reserve(ix.inner.Reserve)
		defer d.repl.settle(tok)
		sh := d.shards[si]
		sh.mu.Lock()
		defer sh.mu.Unlock()
		return fn(sh, g, si)
	}
	sh := d.shards[0]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	tok, g, si := d.repl.reserve(ix.inner.Reserve)
	defer d.repl.settle(tok)
	return fn(sh, g, si)
}

// add logs an insert: reserve the sid and lock its lane, build the
// record, apply it, append it. The record carries the caller's raw
// elements in their original order, so replay re-interns them into
// identical dictionary ids, and the global sid, so replay routes it back
// to the same lane. Inserts routed to different lanes apply and fsync
// concurrently. If the insert fails, a sharded reservation stays a hole —
// holes are first-class (crash recovery produces them too) and cost one
// mapping slot.
func (d *durable) add(ix *Index, elements []string) (int, error) {
	if d.closed.Load() {
		return 0, errClosed()
	}
	var sid uint32
	err := d.withLane(ix, func(sh *durableShard, g uint32, si int) error {
		sid = g
		return d.commit(ix, sh, si, wal.Record{Op: wal.OpInsert, SID: g, Elements: elements})
	})
	if err != nil {
		return 0, err
	}
	return int(sid), nil
}

// remove logs a delete under the lane that owns its sid.
func (d *durable) remove(ix *Index, rec wal.Record) error {
	si := ix.inner.ShardOf(rec.SID)
	sh := d.shards[si]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return d.commit(ix, sh, si, rec)
}

// commit applies rec and appends it to lane si's log; the caller holds the
// lane, so per-lane log order equals apply order.
func (d *durable) commit(ix *Index, sh *durableShard, si int, rec wal.Record) error {
	if d.closed.Load() {
		return errClosed()
	}
	if err := ix.apply(si, rec); err != nil {
		return err
	}
	if err := sh.log.Append(rec); err != nil {
		// The in-memory mutation stands (queries will see it), but it is
		// not durable — the caller must treat it as failed.
		return fmt.Errorf("ssr: %s applied but not logged: %w", rec.Op, err)
	}
	return nil
}

// Checkpoint forces a checkpoint now: snapshot the current state, rotate
// to a fresh log segment, compact old generations — shard by shard on a
// sharded index (shards checkpoint independently; no cross-shard barrier
// is needed because each shard's chain replays to that shard's state on
// its own). Errors for indices not opened durably.
func (ix *Index) Checkpoint() error {
	if ix.dur == nil {
		return fmt.Errorf("ssr: index is not durable (no checkpoint target)")
	}
	if ix.replica {
		return fmt.Errorf("ssr: %w (rotations follow the primary's stream)", ErrReplicaReadOnly)
	}
	if ix.dur.closed.Load() {
		return errClosed()
	}
	var errs []error
	for si, sh := range ix.dur.shards {
		sh.mu.Lock()
		err := sh.log.Checkpoint()
		sh.mu.Unlock()
		if err != nil {
			errs = append(errs, fmt.Errorf("ssr: checkpointing shard %d: %w", si, err))
		}
	}
	return errors.Join(errs...)
}

// Close flushes a final checkpoint and releases the log of a durable
// index (per shard, on a sharded one); the next OpenDurable then loads
// the snapshots with no tails to replay. Close is idempotent, and a nil
// or non-durable index closes as a no-op. Queries keep working after
// Close; mutations error.
func (ix *Index) Close() error {
	if ix == nil {
		return nil
	}
	// The auto-tune loop stops on every Close, durable or not — it is the
	// one background goroutine a non-durable index can own.
	ix.stopAutoTune()
	if ix.dur == nil {
		return nil
	}
	d := ix.dur
	if d.closed.Swap(true) {
		return nil
	}
	var errs []error
	for si, sh := range d.shards {
		sh.mu.Lock()
		// A follower never rotates on its own: its generation chain must
		// stay in lockstep with the primary's, so Close leaves the live
		// segment as the recovery tail instead of cutting a checkpoint.
		var ckptErr error
		if !ix.replica {
			ckptErr = sh.log.Checkpoint()
		}
		closeErr := sh.log.Close()
		sh.mu.Unlock()
		if ckptErr != nil {
			errs = append(errs, fmt.Errorf("ssr: final checkpoint of shard %d: %w", si, ckptErr))
		}
		if closeErr != nil {
			errs = append(errs, fmt.Errorf("ssr: closing shard %d log: %w", si, closeErr))
		}
	}
	return errors.Join(errs...)
}
