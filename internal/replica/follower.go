package replica

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	ssr "repro"
	"repro/internal/wal"
)

// errResync reports a condition that makes tailing impossible — plan
// generation moved, resume position compacted away, topology changed —
// so the follower must replace its mirror with a re-bootstrap from the
// primary's newest checkpoints.
var errResync = errors.New("replica: follower must re-bootstrap")

// FollowerOptions configures StartFollower. Dir and Primary are
// required; everything else has a usable zero value.
type FollowerOptions struct {
	// Dir is the local durability directory holding the mirror. It is
	// replaced wholesale on resync; nothing else may live there. A new
	// mirror is fetched into the sibling Dir+".resync" and swapped in by
	// renaming the old one to Dir+".old", so those two names are the
	// follower's as well.
	Dir string
	// Primary is the primary's base URL (e.g. http://host:7600).
	Primary string
	// Client is the HTTP client used for bootstrap and tailing (default
	// http.DefaultClient; a streaming request must not carry a global
	// Timeout — the stream is cut by the heartbeat watchdog instead).
	Client *http.Client
	// Durable is passed through to OpenReplica (CheckpointBytes is
	// forced off there; followers rotate only in lockstep).
	Durable ssr.DurableOptions
	// LagBoundBytes is the readiness bound: the follower reports
	// CaughtUp when its summed byte lag is ≤ this (default 1MiB).
	LagBoundBytes int64
	// Heartbeat is the expected primary watermark period; the stream
	// watchdog cuts a connection silent for 4× this (default 1s).
	Heartbeat time.Duration
	// ReconnectBackoff is the pause between tail attempts (default
	// 500ms).
	ReconnectBackoff time.Duration
}

func (o FollowerOptions) withDefaults() FollowerOptions {
	if o.Client == nil {
		o.Client = http.DefaultClient
	}
	if o.LagBoundBytes <= 0 {
		o.LagBoundBytes = 1 << 20
	}
	if o.Heartbeat <= 0 {
		o.Heartbeat = time.Second
	}
	if o.ReconnectBackoff <= 0 {
		o.ReconnectBackoff = 500 * time.Millisecond
	}
	return o
}

// FollowerStatus is a point-in-time snapshot of the follower loop, the
// substance behind the follower's /readyz.
type FollowerStatus struct {
	Connected      bool   `json:"connected"`
	CaughtUp       bool   `json:"caught_up"`
	LagBytes       int64  `json:"lag_bytes"`
	PlanGeneration uint64 `json:"plan_generation"`
	SettledSID     uint32 `json:"settled_sid"`
	Shards         int    `json:"shards"`
	Resyncs        uint64 `json:"resyncs"`
	Reconnects     uint64 `json:"reconnects"`
}

// Follower mirrors a primary into a local durability directory and
// serves reads from the mirror. Start it with StartFollower; Index
// returns the live read-only index (which changes identity across a
// resync — always re-fetch, never cache).
type Follower struct {
	opt    FollowerOptions
	mu     sync.Mutex
	ix     *ssr.Index
	status FollowerStatus
	cancel context.CancelFunc
	done   chan struct{}
}

// StartFollower opens (or bootstraps) the local mirror and starts the
// tail loop. The loop reconnects on transient failures and re-bootstraps
// on resync conditions until ctx is cancelled or Close is called.
func StartFollower(ctx context.Context, opt FollowerOptions) (*Follower, error) {
	opt = opt.withDefaults()
	f := &Follower{opt: opt}
	has, err := ssr.HasDurableState(opt.Dir)
	if err != nil {
		return nil, err
	}
	if !has {
		if err := f.installMirror(ctx); err != nil {
			return nil, fmt.Errorf("replica: bootstrapping from %s: %w", opt.Primary, err)
		}
	}
	ix, err := ssr.OpenReplica(opt.Dir, opt.Durable)
	if err != nil {
		return nil, err
	}
	f.ix = ix
	f.status.Shards = len(mustPositions(ix))
	f.status.PlanGeneration = ix.TunerState().PlanGeneration
	runCtx, cancel := context.WithCancel(ctx)
	f.cancel = cancel
	f.done = make(chan struct{})
	go f.run(runCtx)
	return f, nil
}

func mustPositions(ix *ssr.Index) []ssr.WALPosition {
	pos, err := ix.ReplicaPositions()
	if err != nil {
		// Unreachable: OpenReplica always yields a durable index.
		panic(err)
	}
	return pos
}

// Index returns the live mirror. It stays valid for reads even while a
// resync swaps in a fresh one, but callers must re-fetch per request.
func (f *Follower) Index() *ssr.Index {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ix
}

// Status snapshots the tail loop's state.
func (f *Follower) Status() FollowerStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.status
}

func (f *Follower) setStatus(mut func(*FollowerStatus)) {
	f.mu.Lock()
	mut(&f.status)
	f.mu.Unlock()
}

// Close stops the tail loop and closes the mirror.
func (f *Follower) Close() error {
	f.cancel()
	<-f.done
	return f.Index().Close()
}

// run is the supervision loop: tail until it fails, then reconnect or
// resync as the failure demands.
func (f *Follower) run(ctx context.Context) {
	defer close(f.done)
	for {
		err := f.tail(ctx)
		f.setStatus(func(st *FollowerStatus) { st.Connected = false; st.CaughtUp = false })
		if ctx.Err() != nil {
			return
		}
		if errors.Is(err, errResync) {
			log.Printf("replica: resyncing from %s: %v", f.opt.Primary, err)
			if rerr := f.resync(ctx); rerr != nil {
				if ctx.Err() != nil {
					return
				}
				log.Printf("replica: resync failed (retrying): %v", rerr)
			}
		} else if err != nil {
			log.Printf("replica: stream to %s broke (reconnecting): %v", f.opt.Primary, err)
		}
		f.setStatus(func(st *FollowerStatus) { st.Reconnects++ })
		select {
		case <-ctx.Done():
			return
		case <-time.After(f.opt.ReconnectBackoff):
		}
	}
}

// installMirror replaces Dir with a fresh mirror of the primary. The
// mirror is bootstrapped into Dir+".resync" and swapped in with two
// renames, so a crash at any point leaves Dir the old complete mirror,
// absent (StartFollower then bootstraps again), or the new complete
// mirror — never a half-removed one, which a crash inside a plain
// RemoveAll of Dir could leave: a sharded MANIFEST naming a shard
// directory already deleted.
func (f *Follower) installMirror(ctx context.Context) error {
	stage, old := f.opt.Dir+".resync", f.opt.Dir+".old"
	for _, d := range []string{stage, old} {
		if err := os.RemoveAll(d); err != nil {
			return err
		}
	}
	if err := f.bootstrap(ctx, stage); err != nil {
		return err
	}
	if err := os.Rename(f.opt.Dir, old); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	if err := os.Rename(stage, f.opt.Dir); err != nil {
		return err
	}
	if err := syncDir(filepath.Dir(f.opt.Dir)); err != nil {
		return err
	}
	return os.RemoveAll(old)
}

// syncDir fsyncs a directory so renames within it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	return errors.Join(serr, d.Close())
}

// bootstrap pulls the primary's newest sealed checkpoints into the empty
// directory dir: manifest handshake, one checkpoint per shard, and —
// sharded layouts only — the raw MANIFEST committed last, mirroring
// CreateDurable's ordering.
func (f *Follower) bootstrap(ctx context.Context, dir string) error {
	man, err := f.fetchManifest(ctx)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, ref := range man.Checkpoints {
		if err := f.fetchCheckpoint(ctx, dir, man.Shards, ref); err != nil {
			return err
		}
	}
	if man.Shards > 1 {
		if err := ssr.CommitRawManifest(dir, man.Manifest); err != nil {
			return err
		}
	}
	return nil
}

func (f *Follower) fetchManifest(ctx context.Context) (*ManifestResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.opt.Primary+"/replica/manifest", nil)
	if err != nil {
		return nil, err
	}
	resp, err := f.opt.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close() //ssrvet:ignore droppederr -- response fully read below; close failure changes nothing
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("replica: manifest handshake: %s", resp.Status)
	}
	var man ManifestResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 16<<20)).Decode(&man); err != nil {
		return nil, fmt.Errorf("replica: decoding manifest: %w", err)
	}
	if man.WireVersion != WireVersion {
		return nil, fmt.Errorf("replica: primary speaks wire version %d, this build speaks %d", man.WireVersion, WireVersion)
	}
	if man.Shards < 1 || man.Shards > maxWireShards {
		return nil, fmt.Errorf("replica: primary reports %d shards", man.Shards)
	}
	if len(man.Checkpoints) != man.Shards {
		return nil, fmt.Errorf("replica: manifest names %d checkpoints for %d shards", len(man.Checkpoints), man.Shards)
	}
	return &man, nil
}

func (f *Follower) fetchCheckpoint(ctx context.Context, dir string, shards int, ref CheckpointRef) error {
	url := fmt.Sprintf("%s/replica/checkpoint?shard=%d&gen=%d", f.opt.Primary, ref.Shard, ref.Generation)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := f.opt.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close() //ssrvet:ignore droppederr -- body fully consumed by the import; close failure changes nothing
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("replica: fetching checkpoint shard=%d gen=%d: %s", ref.Shard, ref.Generation, resp.Status)
	}
	// ImportCheckpoint verifies the seal before publishing, so a short or
	// corrupted body cannot land.
	return ssr.ImportShardCheckpoint(dir, shards, ref.Shard, ref.Generation, resp.Body)
}

// resync replaces the mirror with a freshly bootstrapped one. The
// outgoing index keeps serving reads until the replacement is open, then
// closes.
func (f *Follower) resync(ctx context.Context) error {
	if err := f.installMirror(ctx); err != nil {
		return err
	}
	ix, err := ssr.OpenReplica(f.opt.Dir, f.opt.Durable)
	if err != nil {
		return err
	}
	f.mu.Lock()
	old := f.ix
	f.ix = ix
	f.status.Resyncs++
	f.status.PlanGeneration = ix.TunerState().PlanGeneration
	f.status.Shards = len(mustPositions(ix))
	f.mu.Unlock()
	if err := old.Close(); err != nil {
		log.Printf("replica: closing pre-resync mirror: %v", err)
	}
	return nil
}

// shardTail is the per-shard stream state while tailing.
type shardTail struct {
	// pos is where the NEXT streamed byte of this shard belongs —
	// continuity is validated against every chunk's (generation, start).
	pos ssr.WALPosition
	// localGen is the local chain's live generation (rotations move it).
	localGen uint64
	// carry buffers streamed bytes until whole frames can be decoded.
	carry []byte
	// queue holds decoded-but-unapplied items in stream order.
	queue []pendItem
}

type pendItem struct {
	rotate  bool
	nextGen uint64 // rotate: the generation to rotate into
	rotPlan uint64 // rotate: the primary's plan generation at rotation
	rec     wal.Record
}

// tail connects one stream and applies it until it breaks. A nil return
// means ctx was cancelled; errResync demands a re-bootstrap; anything
// else is a transient failure worth reconnecting over.
func (f *Follower) tail(ctx context.Context) error {
	ix := f.Index()
	positions, err := ix.ReplicaPositions()
	if err != nil {
		return err
	}
	planGen := ix.TunerState().PlanGeneration

	reqCtx, cancelReq := context.WithCancel(ctx)
	defer cancelReq()
	req, err := http.NewRequestWithContext(reqCtx, http.MethodPost,
		f.opt.Primary+"/replica/stream", bytes.NewReader(EncodeTokens(planGen, positions)))
	if err != nil {
		return err
	}
	resp, err := f.opt.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close() //ssrvet:ignore droppederr -- stream teardown; the tail loop reconnects regardless
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusConflict:
		return fmt.Errorf("%w: primary rejected resume tokens: %s", errResync, readErrorBody(resp.Body))
	default:
		return fmt.Errorf("replica: stream request: %s: %s", resp.Status, readErrorBody(resp.Body))
	}

	// Watchdog: a stream silent for 4 heartbeats is dead even if TCP
	// disagrees; cancelling the request context unblocks the read.
	watchdog := time.AfterFunc(4*f.opt.Heartbeat, cancelReq)
	defer watchdog.Stop()

	sts := make([]*shardTail, len(positions))
	for si, p := range positions {
		sts[si] = &shardTail{pos: p, localGen: p.Generation}
	}
	gate := uint32(0)
	if len(sts) == 1 {
		// One lane: stream order IS apply order, no cross-shard merge to
		// gate. Apply everything as it decodes.
		gate = math.MaxUint32
	}
	f.setStatus(func(st *FollowerStatus) { st.Connected = true })

	fr := NewFrameReader(resp.Body)
	for {
		frame, err := fr.Next()
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return fmt.Errorf("replica: reading stream: %w", err)
		}
		watchdog.Reset(4 * f.opt.Heartbeat)
		switch frame.Kind {
		case KindRecords:
			if int(frame.Shard) >= len(sts) {
				return fmt.Errorf("replica: records for shard %d of %d", frame.Shard, len(sts))
			}
			st := sts[frame.Shard]
			chunk, err := ParseRecords(frame.Payload)
			if err != nil {
				return err
			}
			if chunk.Generation != st.pos.Generation || chunk.Start != st.pos.Offset {
				return fmt.Errorf("replica: shard %d stream discontinuity: chunk at %d:%d, expected %s",
					frame.Shard, chunk.Generation, chunk.Start, st.pos)
			}
			st.carry = append(st.carry, chunk.Frames...)
			st.pos.Offset += int64(len(chunk.Frames))
			// Decode whole frames out of the carry; a split frame at the
			// tail reads exactly like a torn log tail and is left for the
			// next chunk.
			valid, _, err := wal.Replay(bytes.NewReader(st.carry), func(rec wal.Record) error {
				st.queue = append(st.queue, pendItem{rec: rec})
				return nil
			})
			if err != nil {
				return fmt.Errorf("replica: shard %d stream records: %w", frame.Shard, err)
			}
			st.carry = st.carry[:copy(st.carry, st.carry[valid:])]
			if len(sts) == 1 {
				if err := f.drain(ix, sts, gate, planGen); err != nil {
					return err
				}
			}
		case KindRotate:
			if int(frame.Shard) >= len(sts) {
				return fmt.Errorf("replica: rotation for shard %d of %d", frame.Shard, len(sts))
			}
			st := sts[frame.Shard]
			rot, err := ParseRotate(frame.Payload)
			if err != nil {
				return err
			}
			if len(st.carry) > 0 {
				return fmt.Errorf("replica: shard %d rotated with %d undecoded bytes in flight", frame.Shard, len(st.carry))
			}
			st.queue = append(st.queue, pendItem{rotate: true, nextGen: rot.NextGeneration, rotPlan: rot.PlanGeneration})
			st.pos = ssr.WALPosition{Generation: rot.NextGeneration}
			if len(sts) == 1 {
				if err := f.drain(ix, sts, gate, planGen); err != nil {
					return err
				}
			}
		case KindWatermark:
			wm, err := ParseWatermark(frame.Payload)
			if err != nil {
				return err
			}
			if wm.PlanGeneration != planGen {
				return fmt.Errorf("%w: plan generation moved from %d to %d", errResync, planGen, wm.PlanGeneration)
			}
			if len(wm.Ends) != len(sts) {
				return fmt.Errorf("replica: watermark covers %d shards of %d", len(wm.Ends), len(sts))
			}
			if len(sts) > 1 && wm.SettledSID > gate {
				gate = wm.SettledSID
			}
			if err := f.drain(ix, sts, gate, planGen); err != nil {
				return err
			}
			f.noteProgress(ix, wm)
		case KindError:
			se, err := ParseStreamError(frame.Payload)
			if err != nil {
				return err
			}
			switch se.Code {
			case ErrCodeCompacted, ErrCodePlanChanged:
				return fmt.Errorf("%w: primary says: %s", errResync, se.Message)
			default:
				return fmt.Errorf("replica: primary reports: %s", se.Message)
			}
		default:
			return fmt.Errorf("replica: unknown frame kind %d", frame.Kind)
		}
	}
}

// drain applies queued items. Rotations and segment-header records pop
// per shard unconditionally (they carry no sid and order only within
// their shard); insert/delete records merge across shards by ascending
// sid below the gate — the same k-way merge crash recovery runs over
// buffered tails, which is what makes the mirror byte-identical.
func (f *Follower) drain(ix *ssr.Index, sts []*shardTail, gate uint32, planGen uint64) error {
	for {
		progress := false
		for si, st := range sts {
			for len(st.queue) > 0 {
				h := st.queue[0]
				if h.rotate {
					if h.rotPlan != planGen {
						return fmt.Errorf("%w: rotation carries plan generation %d, tailing %d", errResync, h.rotPlan, planGen)
					}
					if err := ix.ReplicaRotate(si, h.nextGen); err != nil {
						return err
					}
					st.localGen = h.nextGen
				} else if h.rec.Op == wal.OpCheckpoint {
					// The streamed copy of the segment header: ReplicaRotate
					// already wrote the byte-identical record locally, so
					// validate and skip.
					if h.rec.Seq != st.localGen {
						return fmt.Errorf("replica: shard %d header names generation %d, chain is at %d", si, h.rec.Seq, st.localGen)
					}
				} else {
					break
				}
				st.queue = st.queue[1:]
				progress = true
			}
		}
		best := -1
		for si, st := range sts {
			if len(st.queue) == 0 || st.queue[0].rotate || st.queue[0].rec.Op == wal.OpCheckpoint {
				continue
			}
			if st.queue[0].rec.SID >= gate {
				continue
			}
			if best < 0 || st.queue[0].rec.SID < sts[best].queue[0].rec.SID {
				best = si
			}
		}
		if best >= 0 {
			h := sts[best].queue[0]
			if err := ix.ReplicaApply(best, h.rec); err != nil {
				return err
			}
			sts[best].queue = sts[best].queue[1:]
			progress = true
		}
		if !progress {
			return nil
		}
	}
}

// noteProgress publishes lag after a watermark's drain: how many bytes
// of the watermark's ends the local chains have not yet written.
func (f *Follower) noteProgress(ix *ssr.Index, wm ssr.ReplicationWatermark) {
	local, err := ix.ReplicaPositions()
	if err != nil {
		return
	}
	var lag int64
	for si, end := range wm.Ends {
		if si >= len(local) {
			break
		}
		switch {
		case local[si].Generation == end.Generation:
			if d := end.Offset - local[si].Offset; d > 0 {
				lag += d
			}
		case local[si].Generation < end.Generation:
			// Behind by whole segments; the byte count is unknowable from
			// here, so saturate well past any lag bound.
			lag += end.Offset + 1<<30
		}
	}
	f.setStatus(func(st *FollowerStatus) {
		st.LagBytes = lag
		st.CaughtUp = lag <= f.opt.LagBoundBytes
		st.SettledSID = wm.SettledSID
	})
}

func readErrorBody(r io.Reader) string {
	b, err := io.ReadAll(io.LimitReader(r, 4096))
	if err != nil || len(bytes.TrimSpace(b)) == 0 {
		return "(no detail)"
	}
	return string(bytes.TrimSpace(b))
}
