package ssr

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/recovery"
	"repro/internal/set"
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
// threshold. Each lane always retains one prior generation, so a damaged
// newest checkpoint still recovers through its predecessor plus the
// chained logs, and a follower one rotation behind can keep tailing. On a
// sharded index every option applies per shard (each shard runs its own
// log and checkpoint cycle).
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
		PreallocBytes: o.PreallocBytes,
	}
}

// ErrNoDurableState reports that OpenDurable found nothing to open; use
// CreateDurable to bootstrap the directory from a built collection.
var ErrNoDurableState = errors.New("ssr: durability directory holds no state")

// manifestName names the file that commits a durable layout (see
// durableLayout).
const manifestName = "MANIFEST"

// durableManifest is the JSON body of the MANIFEST file. Version gates
// the whole image format: a reader refuses versions it does not know
// (the image was written by another release and may rely on invariants
// this code does not share) but tolerates unknown FIELDS within a known
// version, so additive evolution needs no version bump.
type durableManifest struct {
	Version    int   `json:"version"`
	Shards     int   `json:"shards"`
	RouterSeed int64 `json:"router_seed"`
}

// manifestVersion is the one version this release writes and reads.
// Version 1 directories checkpointed sharded lanes in a container format
// of their own, and their one-shard directories had no MANIFEST at all;
// version 2 lanes checkpointed in the nested SSRPUB1 snapshot envelope.
const manifestVersion = 3

func shardDirPath(dir string, si int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%03d", si))
}

// readRawManifest returns the MANIFEST bytes, or nil when the directory
// has none.
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
func parseManifest(raw []byte) (durableManifest, error) {
	var man durableManifest
	if err := json.Unmarshal(raw, &man); err != nil {
		return man, fmt.Errorf("ssr: parsing durable manifest: %w", err)
	}
	if man.Version == 2 {
		return man, fmt.Errorf("ssr: durable manifest version 2 is not supported: its lanes checkpoint in the SSRPUB1 snapshot format of older releases, and this build reads version %d only", manifestVersion)
	}
	if man.Version != manifestVersion {
		return man, fmt.Errorf("ssr: durable manifest version %d is not supported (this build reads version %d only; a higher version was written by a newer release — upgrade this binary — and a lower one by an older release whose lane format this one no longer reads)",
			man.Version, manifestVersion)
	}
	if err := engine.CheckShards(man.Shards); err != nil {
		return man, fmt.Errorf("ssr: durable manifest: %w", err)
	}
	return man, nil
}

// readLayout returns dir's layout. A directory without a MANIFEST holds no
// state — unless it holds checkpoint or log files directly, the flat
// one-shard layout of releases before manifest version 2, which this
// release refuses without touching it.
func readLayout(dir string) (durableLayout, error) {
	raw, err := readRawManifest(dir)
	if err != nil {
		return durableLayout{}, err
	}
	if raw == nil {
		if flat, err := recovery.DirHasState(dir); err != nil || !flat {
			return durableLayout{}, cmp.Or(err, ErrNoDurableState)
		}
		return durableLayout{}, fmt.Errorf("ssr: %s holds checkpoint and log files with no MANIFEST, the flat one-shard layout of older releases; this release reads only MANIFEST version %d with shard-NNN/ lanes", dir, manifestVersion)
	}
	man, err := parseManifest(raw)
	return durableLayout{dir: dir, man: man}, err
}

// writeManifest persists the manifest as the LAST step of a bootstrap —
// its presence is the commit point that flips the directory from "no
// state" to "state".
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
// the open-vs-bootstrap decision for servers and CLIs. A MANIFEST counts,
// and so do checkpoint or log files of the older flat layout, which
// OpenDurable refuses and CreateDurable must not overwrite.
func HasDurableState(dir string) (bool, error) {
	if raw, err := readRawManifest(dir); err != nil || raw != nil {
		return raw != nil, err
	}
	return recovery.DirHasState(dir)
}

// durableLayout is a durability directory's shape, which its MANIFEST
// commits: the shard count and router seed, and one shard-NNN/ lane per
// shard. Each lane runs its own generation chain, and its checkpoint is
// Save restricted to its shard; shard logs fsync and compact without
// coordinating, which is where the sharded write throughput comes from.
type durableLayout struct {
	dir string
	man durableManifest
}

// recoveredLane is one lane's decoded checkpoint and its buffered log
// tail.
type recoveredLane struct {
	img  *engine.Image
	recs []wal.Record
}

// decode parses lane si's checkpoint and checks it holds shard si alone,
// under the manifest's topology.
func (l durableLayout) decode(r io.Reader, si int) (recoveredLane, error) {
	img, err := engine.Decode(r)
	if err != nil {
		return recoveredLane{}, err
	}
	if m := l.man; img.Shards != m.Shards || img.RouterSeed != m.RouterSeed || len(img.Parts) != 1 || img.Parts[0].Index != si {
		return recoveredLane{}, fmt.Errorf("ssr: checkpoint of %d parts (%d shards, seed %d) does not hold shard %d alone under the manifest's topology (%d shards, seed %d)",
			len(img.Parts), img.Shards, img.RouterSeed, si, m.Shards, m.RouterSeed)
	}
	return recoveredLane{img: img}, nil
}

// openLanes opens every lane's generation chain through the hooks h
// builds for it. On create each lane must be empty and gets its first
// checkpoint; otherwise each must hold state.
func (l durableLayout) openLanes(opt DurableOptions, create bool, h func(si int) recovery.Hooks) ([]*durableShard, error) {
	lanes := make([]*durableShard, 0, l.man.Shards)
	fail := func(err error) ([]*durableShard, error) {
		return nil, errors.Join(err, closeLanes(lanes))
	}
	for si := 0; si < l.man.Shards; si++ {
		dir := shardDirPath(l.dir, si)
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
	lanes := make([]recoveredLane, lay.man.Shards)
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
			Save: func(w io.Writer) error { return ix.saveShard(w, si) },
		}
	})
	if err != nil {
		return nil, err
	}
	if err := ix.recover(lanes); err != nil {
		return nil, errors.Join(err, closeLanes(shards))
	}
	ix.dur = &durable{shards: shards, dir: dir}
	return ix, nil
}

// recover assembles the index from the lanes' checkpoints (engine.Join,
// which also rebuilds lanes checkpointed before a retune the others
// absorbed), then replays their buffered tails as a k-way merge by sid,
// preserving each lane's internal order. Per-lane order is the only
// correctness requirement (every record's sid is owned by the lane whose
// log carries it), but the merge also re-interns replayed elements in
// global sid order — the order a sequential writer interned them — so
// recovering a sequential history is bit-identical to never crashing.
// The longest dictionary wins: dictionaries are append-only, so every
// lane's is a prefix of it.
func (ix *Index) recover(lanes []recoveredLane) error {
	var names []string
	imgs := make([]*engine.Image, len(lanes))
	for si, lane := range lanes {
		imgs[si] = lane.img
		if len(lane.img.Names) > len(names) {
			names = lane.img.Names
		}
	}
	eng, err := engine.Join(imgs...)
	if err != nil {
		return err
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
	ix.coll = collectionOf(ix.coll.dict, eng)
	return nil
}

// CreateDurable builds an index over the collection (as Build does) and
// bootstraps dir with each shard's first checkpoint, committing the
// layout with a MANIFEST only after every checkpoint is on disk. It
// refuses to run on a directory that already holds durable state — open
// that with OpenDurable instead.
func CreateDurable(dir string, c *Collection, bopt Options, dopt DurableOptions) (*Index, error) {
	has, err := HasDurableState(dir)
	if err != nil {
		return nil, err
	}
	if has {
		return nil, fmt.Errorf("ssr: %s already holds durable state (use OpenDurable)", dir)
	}
	ix, err := Build(c, bopt)
	if err != nil {
		return nil, err
	}
	lay := durableLayout{dir: dir, man: durableManifest{Version: manifestVersion, Shards: ix.inner.NumShards(), RouterSeed: ix.inner.RouterSeed()}}
	shards, err := lay.openLanes(dopt, true, func(si int) recovery.Hooks {
		refuse := fmt.Errorf("ssr: %s already holds durable state", shardDirPath(dir, si))
		return recovery.Hooks{
			Load:  func(io.Reader) error { return refuse },
			Apply: func(wal.Record) error { return refuse },
			Save:  func(w io.Writer) error { return ix.saveShard(w, si) },
		}
	})
	if err != nil {
		return nil, err
	}
	if err := writeManifest(dir, lay.man); err != nil {
		return nil, errors.Join(err, closeLanes(shards))
	}
	ix.dur = &durable{shards: shards, dir: dir}
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
// allocates nothing — its global sids are its core sids (the engine's
// dense one-shard rule) — so only the lane lock keeps two writers from
// reserving the same sid.
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
