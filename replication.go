package ssr

// Primary/follower replication plumbing. A durable index exposes a
// ReplicationSource: offset-addressable frame reads over each shard's
// generation chain, sealed checkpoints as shippable artifacts, change
// notification, and a settled-sid watermark. A follower opens the same
// durable layout with OpenReplica and mirrors the primary byte for byte:
// streamed records re-append through the identical canonical frame
// encoding, so the follower's local chain — and therefore its Save
// bytes — match the primary's for any sequential history, with exactly
// the guarantee crash recovery already gives. The HTTP transport and the
// follower driver live in internal/replica; this file is the index-side
// contract they build on.
//
// Why a watermark exists: the only cross-shard ordering that Save bytes
// depend on is dictionary intern order, and recovery normalizes it by
// replaying buffered shard tails as a k-way merge in ascending global
// sid. A live stream cannot wait for "all tails" — so the primary
// periodically publishes the frontier below which every allocated sid
// has either been logged or abandoned as a hole. A follower that has
// received everything the watermark covers can merge its per-shard
// queues below that frontier in sid order and land on exactly the state
// recovery would have produced.

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"repro/internal/recovery"
	"repro/internal/wal"
)

// ErrReplicaReadOnly reports a mutation attempted on a follower index.
// Writes go to the primary; the follower's state changes only through
// the replication stream.
var ErrReplicaReadOnly = errors.New("ssr: index is a replication follower (read-only; write to the primary)")

// ErrCompactedSegment reports a resume position whose log segment the
// primary has compacted away. The follower cannot tail from there; it
// must re-bootstrap from the newest shipped checkpoint.
var ErrCompactedSegment = errors.New("ssr: log segment compacted away (re-bootstrap from the newest checkpoint)")

// WALPosition addresses a frame boundary in one shard's generation
// chain: byte Offset within log segment wal-<Generation>. It is the
// resume token of the replication stream — every position a follower
// ever holds lies on a frame boundary, so resuming from it can neither
// split nor duplicate a record.
type WALPosition struct {
	Generation uint64 `json:"generation"`
	Offset     int64  `json:"offset"`
}

// Before reports whether p addresses an earlier byte than q.
func (p WALPosition) Before(q WALPosition) bool {
	return p.Generation < q.Generation || (p.Generation == q.Generation && p.Offset < q.Offset)
}

func (p WALPosition) String() string {
	return fmt.Sprintf("%d:%d", p.Generation, p.Offset)
}

// ReplicationWatermark is one snapshot of the primary's settled
// frontier. Every insert with sid < SettledSID has either been appended
// to its owning shard's log at a position covered by Ends, or failed
// before logging and will never appear (a hole — recovery produces those
// too). A follower holding all bytes up to Ends can therefore merge its
// buffered records with sid < SettledSID in ascending sid order without
// waiting for anything else.
type ReplicationWatermark struct {
	SettledSID     uint32        `json:"settled_sid"`
	Ends           []WALPosition `json:"ends"`
	PlanGeneration uint64        `json:"plan_generation"`
}

// replTracker tracks in-flight inserts on the primary so the watermark
// never runs ahead of an insert that is reserved but not yet logged. A
// sid is reserved under the tracker's lock and stays registered until
// the record is appended (or the insert abandoned), so any sid the
// allocation frontier covers is either registered or settled. Its mutex
// nests inside a lane mutex and outside every engine lock.
type replTracker struct {
	mu      sync.Mutex
	nextTok uint64
	pending map[uint64]uint32
}

// reserve calls next under the tracker's lock and registers the sid it
// returns until settle(tok).
func (t *replTracker) reserve(next func() (uint32, int)) (tok uint64, g uint32, si int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	g, si = next()
	t.nextTok++
	if t.pending == nil {
		t.pending = make(map[uint64]uint32)
	}
	t.pending[t.nextTok] = g
	return t.nextTok, g, si
}

// settle retires the entry: the record is durably logged, or the insert
// failed and its sid (if any) is a permanent hole.
func (t *replTracker) settle(tok uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.pending, tok)
}

// floor returns the settled frontier: the minimum over in-flight sids,
// capped by n — the allocation frontier the caller read BEFORE calling
// (that read order is what makes an empty scan sound: any sid n covers
// was registered before n could cover it).
func (t *replTracker) floor(n uint32) uint32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	w := n
	for _, g := range t.pending {
		if g < w {
			w = g
		}
	}
	return w
}

// ReplicationSource is the primary-side handle internal/replica serves
// from. Obtain it with Index.ReplicationSource; all methods are safe for
// concurrent use.
type ReplicationSource struct {
	ix   *Index
	mu   sync.Mutex
	subs map[int]chan struct{}
	next int
}

// ReplicationSource returns the index's replication handle, creating it
// (and installing per-shard log notifiers) on first call. It errors on a
// non-durable index — there is no log to stream — and on a follower:
// chain replication is not supported, every follower tails the primary.
func (ix *Index) ReplicationSource() (*ReplicationSource, error) {
	if ix.dur == nil {
		return nil, fmt.Errorf("ssr: index is not durable (nothing to replicate)")
	}
	if ix.replica {
		return nil, fmt.Errorf("ssr: a follower cannot serve replication (tail the primary instead)")
	}
	d := ix.dur
	d.srcOnce.Do(func() {
		src := &ReplicationSource{ix: ix, subs: make(map[int]chan struct{})}
		for _, sh := range d.shards {
			sh.log.SetNotify(src.wake)
		}
		d.src = src
	})
	return d.src, nil
}

// Shards returns the number of replicated log lanes.
func (s *ReplicationSource) Shards() int { return len(s.ix.dur.shards) }

// PlanGeneration returns the live plan generation (0 = build plan). A
// follower whose generation differs must re-bootstrap: plans are derived
// from capture cuts a stream cannot reproduce.
func (s *ReplicationSource) PlanGeneration() uint64 { return s.ix.inner.PlanGeneration() }

// RawManifest returns the MANIFEST bytes of a sharded layout, or nil for
// the single-shard flat layout. Followers copy it verbatim so the mirror
// commits with the identical topology file.
func (s *ReplicationSource) RawManifest() ([]byte, error) {
	return readRawManifest(s.ix.dur.dir)
}

// lane returns shard si's logging lane.
func (d *durable) lane(si int) (*durableShard, error) {
	if si < 0 || si >= len(d.shards) {
		return nil, fmt.Errorf("ssr: shard %d out of range [0, %d)", si, len(d.shards))
	}
	return d.shards[si], nil
}

// position returns the lane's live segment generation and logical size.
func (sh *durableShard) position() WALPosition {
	gen, off := sh.log.Position()
	return WALPosition{Generation: gen, Offset: off}
}

// positions returns every lane's position.
func (d *durable) positions() []WALPosition {
	out := make([]WALPosition, len(d.shards))
	for si, sh := range d.shards {
		out[si] = sh.position()
	}
	return out
}

// Position returns shard si's live segment generation and logical size.
func (s *ReplicationSource) Position(si int) (WALPosition, error) {
	sh, err := s.ix.dur.lane(si)
	if err != nil {
		return WALPosition{}, err
	}
	return sh.position(), nil
}

// Watermark snapshots the settled frontier. The read order — frontier
// first, per-shard ends after — is load-bearing: any record settled
// before the frontier scan was appended before its shard's end was read,
// so everything below SettledSID lies within Ends.
func (s *ReplicationSource) Watermark() ReplicationWatermark {
	ix := s.ix
	w := ix.dur.repl.floor(uint32(ix.inner.NumAllocated()))
	return ReplicationWatermark{SettledSID: w, Ends: ix.dur.positions(), PlanGeneration: ix.inner.PlanGeneration()}
}

// ReadFrames reads whole verified frames of shard si's chain from pos:
// raw log bytes, so a follower appending them (or re-encoding the
// decoded records, which is byte-identical) reproduces the primary's
// file. next is the first position not returned. sealed reports that pos
// pointed into a finished older segment and the read exhausted it — next
// then addresses the start of the following generation. Reading at the
// live end returns no data and sealed false; wait on Subscribe and
// retry. A position inside a compacted-away generation returns
// ErrCompactedSegment.
func (s *ReplicationSource) ReadFrames(si int, pos WALPosition, maxBytes int) (data []byte, next WALPosition, sealed bool, err error) {
	sh, err := s.ix.dur.lane(si)
	if err != nil {
		return nil, pos, false, err
	}
	for {
		liveGen, liveOff := sh.log.Position()
		if pos.Generation > liveGen {
			return nil, pos, false, fmt.Errorf("ssr: shard %d position %s is beyond the live generation %d", si, pos, liveGen)
		}
		path := sh.log.WALFilePath(pos.Generation)
		if pos.Generation == liveGen {
			if pos.Offset > liveOff {
				return nil, pos, false, fmt.Errorf("ssr: shard %d position %s is beyond the live segment end %d", si, pos, liveOff)
			}
			data, nextOff, err := wal.ReadFramesFile(path, pos.Offset, liveOff, maxBytes)
			if err != nil {
				if errors.Is(err, os.ErrNotExist) {
					// Rotation raced our snapshot; the segment is sealed now.
					continue
				}
				return nil, pos, false, err
			}
			return data, WALPosition{Generation: pos.Generation, Offset: nextOff}, false, nil
		}
		// An older generation: complete on disk (rotation synced it before
		// the next generation was born), so a read that comes back short of
		// maxBytes has hit its true end.
		data, nextOff, err := wal.ReadFramesFile(path, pos.Offset, -1, maxBytes)
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				return nil, pos, false, fmt.Errorf("%w: shard %d generation %d", ErrCompactedSegment, si, pos.Generation)
			}
			return nil, pos, false, err
		}
		if len(data) >= maxBytes {
			return data, WALPosition{Generation: pos.Generation, Offset: nextOff}, false, nil
		}
		return data, WALPosition{Generation: pos.Generation + 1}, true, nil
	}
}

// NewestCheckpoint returns the newest generation of shard si whose
// checkpoint seal verifies — the bootstrap artifact a follower fetches.
func (s *ReplicationSource) NewestCheckpoint(si int) (uint64, error) {
	sh, err := s.ix.dur.lane(si)
	if err != nil {
		return 0, err
	}
	gen, found, err := recovery.NewestCheckpoint(sh.log.Dir())
	if err != nil {
		return 0, err
	}
	if !found {
		return 0, fmt.Errorf("ssr: shard %d holds no intact checkpoint", si)
	}
	return gen, nil
}

// OpenCheckpoint verifies and opens shard si's checkpoint of generation
// gen for shipping, returning the reader and the exact byte size.
func (s *ReplicationSource) OpenCheckpoint(si int, gen uint64) (io.ReadCloser, int64, error) {
	sh, err := s.ix.dur.lane(si)
	if err != nil {
		return nil, 0, err
	}
	path := sh.log.CheckpointFilePath(gen)
	if err := recovery.VerifyCheckpoint(path); err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, 0, fmt.Errorf("%w: shard %d checkpoint %d", ErrCompactedSegment, si, gen)
		}
		return nil, 0, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	fi, err := f.Stat()
	if err != nil {
		return nil, 0, errors.Join(err, f.Close())
	}
	return f, fi.Size(), nil
}

// Subscribe returns a channel that receives a (coalesced) signal after
// every append or rotation on any shard, and a cancel function. The
// channel has capacity one: a signal may stand for many changes.
func (s *ReplicationSource) Subscribe() (<-chan struct{}, func()) {
	ch := make(chan struct{}, 1)
	s.mu.Lock()
	s.next++
	id := s.next
	s.subs[id] = ch
	s.mu.Unlock()
	cancel := func() {
		s.mu.Lock()
		delete(s.subs, id)
		s.mu.Unlock()
	}
	return ch, cancel
}

// wake is the per-shard log notifier. It runs under the recovery log's
// internal mutex, so it only performs non-blocking sends.
func (s *ReplicationSource) wake() {
	s.mu.Lock()
	for _, ch := range s.subs {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	s.mu.Unlock()
}

// --- follower side ---

// OpenReplica opens a durability directory as a replication follower.
// The index rejects external mutations (ErrReplicaReadOnly) and never
// rotates its logs on its own — automatic checkpoints are disabled and
// Close skips the final one — because its generation chain must stay in
// lockstep with the primary's: rotations happen only through
// ReplicaRotate when the stream says so. Local crash recovery is the
// ordinary OpenDurable path, and ReplicaPositions afterwards are the
// resume tokens to tail from.
func OpenReplica(dir string, opt DurableOptions) (*Index, error) {
	opt.CheckpointBytes = -1
	ix, err := OpenDurable(dir, opt)
	if err != nil {
		return nil, err
	}
	ix.replica = true
	return ix, nil
}

// IsReplica reports whether the index is a replication follower.
func (ix *Index) IsReplica() bool { return ix.replica }

// ReplicaPositions returns each shard's local chain position — the
// resume tokens a follower presents when (re)connecting.
func (ix *Index) ReplicaPositions() ([]WALPosition, error) {
	if ix.dur == nil {
		return nil, fmt.Errorf("ssr: index is not durable")
	}
	return ix.dur.positions(), nil
}

// ReplicaApply applies one streamed record to shard si and mirrors it
// into the local log lane, under the same apply-then-log lane mutex the
// primary used — so per-shard local log order equals per-shard apply
// order, and the re-encoded frame is byte-identical to the primary's.
// The caller (internal/replica's follower driver) is responsible for
// cross-shard sid ordering via the watermark; OpCheckpoint header frames
// are handled by ReplicaRotate, not here.
func (ix *Index) ReplicaApply(si int, rec wal.Record) error {
	sh, err := ix.replicaLane(si)
	if err != nil {
		return err
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return ix.dur.commit(ix, sh, si, rec)
}

// ReplicaRotate rotates shard si's local chain to generation nextGen,
// mirroring a primary-side checkpoint rotation. The local checkpoint is
// the follower's OWN snapshot (its recovery base); the fresh segment's
// header record is written locally and is byte-identical to the one the
// primary's stream carries, which the driver therefore skips.
func (ix *Index) ReplicaRotate(si int, nextGen uint64) error {
	sh, err := ix.replicaLane(si)
	if err != nil {
		return err
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if ix.dur.closed.Load() {
		return errClosed()
	}
	if got := sh.log.Seq(); got+1 != nextGen {
		return fmt.Errorf("ssr: shard %d rotation to generation %d from local generation %d (stream and chain disagree)", si, nextGen, got)
	}
	return sh.log.Checkpoint()
}

func (ix *Index) replicaLane(si int) (*durableShard, error) {
	if ix.dur == nil {
		return nil, fmt.Errorf("ssr: index is not durable")
	}
	if !ix.replica {
		return nil, fmt.Errorf("ssr: index is not a follower (only OpenReplica indexes accept replicated records)")
	}
	return ix.dur.lane(si)
}

// --- bootstrap plumbing (module-internal, like Index.Internal) ---

// ImportShardCheckpoint writes a checkpoint fetched from a primary into
// shard si's chain at generation gen, verifying the seal before
// publishing. si is ignored (the flat layout) when shards is 1. Exposed
// for internal/replica's bootstrap; not a stable API.
func ImportShardCheckpoint(dir string, shards, si int, gen uint64, r io.Reader) error {
	target := dir
	if shards > 1 {
		target = shardDirPath(dir, si)
	}
	return recovery.ImportCheckpoint(target, gen, r)
}

// CommitRawManifest validates and atomically publishes raw MANIFEST
// bytes fetched from a primary — the LAST bootstrap step, exactly as in
// CreateDurable. Exposed for internal/replica's bootstrap; not a stable
// API.
func CommitRawManifest(dir string, raw []byte) error {
	if _, err := parseManifest(raw); err != nil {
		return err
	}
	return commitManifest(dir, raw)
}
