package replica

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	ssr "repro"
)

// fastStream are handler options tuned for tests: tight heartbeats so
// catch-up and watchdog paths run in milliseconds.
var fastStream = HandlerOptions{Heartbeat: 15 * time.Millisecond, ChunkBytes: 4 << 10}

func fastFollowerOptions(dir, primary string) FollowerOptions {
	return FollowerOptions{
		Dir:              dir,
		Primary:          primary,
		Heartbeat:        15 * time.Millisecond,
		ReconnectBackoff: 10 * time.Millisecond,
	}
}

// elemsOf builds overlapping element lists so similarity queries have
// real answers.
func elemsOf(i int) []string {
	out := make([]string, 0, 6)
	for j := 0; j < 6; j++ {
		out = append(out, fmt.Sprintf("e%03d", i+j*3))
	}
	return out
}

func seedCollection(n int) *ssr.Collection {
	coll := ssr.NewCollection()
	for i := 0; i < n; i++ {
		coll.Add(elemsOf(i)...)
	}
	return coll
}

// startPrimary creates a durable primary over a seed collection and
// serves its replication handler.
func startPrimary(t *testing.T, shards, seedSets int) (*ssr.Index, *httptest.Server) {
	t.Helper()
	dir := t.TempDir()
	ix, err := ssr.CreateDurable(dir, seedCollection(seedSets), ssr.Options{
		Budget: 64, MinHashes: 16, Seed: 1, Shards: shards,
	}, ssr.DurableOptions{})
	if err != nil {
		t.Fatalf("creating primary: %v", err)
	}
	t.Cleanup(func() { ix.Close() })
	h, err := NewHandler(ix, fastStream)
	if err != nil {
		t.Fatalf("replication handler: %v", err)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return ix, srv
}

func saveBytes(t *testing.T, ix *ssr.Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatalf("saving index: %v", err)
	}
	return buf.Bytes()
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// waitMirrored waits until the follower is connected with zero lag, its
// index holds the same number of live sets as the primary, and its WAL
// chains have applied exactly the primary's bytes. The position check is
// the load-bearing one: the follower's own lag reading is only as fresh
// as the last watermark it received, so a Len-neutral tail (an insert
// followed by its delete) could otherwise satisfy a stale "caught up".
func waitMirrored(t *testing.T, f *Follower, primary *ssr.Index) {
	t.Helper()
	waitFor(t, "follower catch-up", func() bool {
		st := f.Status()
		if !st.Connected || !st.CaughtUp || st.LagBytes != 0 || f.Index().Len() != primary.Len() {
			return false
		}
		pPos, err := primary.ReplicaPositions()
		if err != nil {
			return false
		}
		fPos, err := f.Index().ReplicaPositions()
		if err != nil || len(fPos) != len(pPos) {
			return false
		}
		for si := range pPos {
			if pPos[si] != fPos[si] {
				return false
			}
		}
		return true
	})
}

// requireEqualState compares the two indexes' Save bytes — the strongest
// equality the system defines (plan, signatures, dictionary order,
// everything).
func requireEqualState(t *testing.T, primary, follower *ssr.Index) {
	t.Helper()
	p, f := saveBytes(t, primary), saveBytes(t, follower)
	if !bytes.Equal(p, f) {
		off := 0
		for off < len(p) && off < len(f) && p[off] == f[off] {
			off++
		}
		lo := off - 32
		if lo < 0 {
			lo = 0
		}
		hiP, hiF := off+32, off+32
		if hiP > len(p) {
			hiP = len(p)
		}
		if hiF > len(f) {
			hiF = len(f)
		}
		t.Fatalf("follower state diverged from primary: primary %d bytes, follower %d bytes, first diff at %d\nprimary  %x\nfollower %x",
			len(p), len(f), off, p[lo:hiP], f[lo:hiF])
	}
}

// mutate drives a deterministic sequential workload: adds with periodic
// deletes, the shapes replication must carry.
func mutate(t *testing.T, ix *ssr.Index, start, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		sid, err := ix.Add(elemsOf(start + i)...)
		if err != nil {
			t.Fatalf("add %d: %v", start+i, err)
		}
		if i%7 == 3 {
			if err := ix.Remove(sid); err != nil {
				t.Fatalf("remove %d: %v", sid, err)
			}
		}
	}
}

func TestFollowerMirrorsPrimary(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			primary, srv := startPrimary(t, shards, 40)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			f, err := StartFollower(ctx, fastFollowerOptions(t.TempDir(), srv.URL))
			if err != nil {
				t.Fatalf("starting follower: %v", err)
			}
			defer f.Close()
			waitMirrored(t, f, primary)
			requireEqualState(t, primary, f.Index())

			// Keep mutating while the follower tails live.
			mutate(t, primary, 100, 60)
			waitMirrored(t, f, primary)
			requireEqualState(t, primary, f.Index())

			// A follower is read-only.
			if _, err := f.Index().Add("x", "y"); err == nil {
				t.Fatal("follower accepted a write")
			}
			// Reads answer identically.
			pm, _, err := primary.Query(elemsOf(120), 0.3, 1.0)
			if err != nil {
				t.Fatalf("primary query: %v", err)
			}
			fm, _, err := f.Index().Query(elemsOf(120), 0.3, 1.0)
			if err != nil {
				t.Fatalf("follower query: %v", err)
			}
			if fmt.Sprint(pm) != fmt.Sprint(fm) {
				t.Fatalf("queries diverge:\nprimary  %v\nfollower %v", pm, fm)
			}
		})
	}
}

// TestFollowerMirrorLayout checks that a one-shard follower's mirror has
// the primary's one durable layout: a version-3 MANIFEST and a shard-000/
// lane, with no checkpoint or log file at the top level.
func TestFollowerMirrorLayout(t *testing.T) {
	primary, srv := startPrimary(t, 1, 20)
	dir := t.TempDir()
	f, err := StartFollower(context.Background(), fastFollowerOptions(dir, srv.URL))
	if err != nil {
		t.Fatalf("starting follower: %v", err)
	}
	mutate(t, primary, 100, 10)
	waitMirrored(t, f, primary)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "MANIFEST"))
	if err != nil {
		t.Fatal(err)
	}
	var man struct{ Version, Shards int }
	if err := json.Unmarshal(raw, &man); err != nil || man.Version != 3 || man.Shards != 1 {
		t.Fatalf("mirror MANIFEST %s (%v), want version 3 for one shard", raw, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if fmt.Sprint(names) != "[MANIFEST shard-000]" {
		t.Fatalf("mirror holds %v at the top level, want [MANIFEST shard-000]", names)
	}
}

func TestFollowerRestartResumes(t *testing.T) {
	primary, srv := startPrimary(t, 2, 30)
	dir := t.TempDir()
	ctx := context.Background()

	f, err := StartFollower(ctx, fastFollowerOptions(dir, srv.URL))
	if err != nil {
		t.Fatalf("starting follower: %v", err)
	}
	mutate(t, primary, 200, 40)
	waitMirrored(t, f, primary)
	if err := f.Close(); err != nil {
		t.Fatalf("closing follower: %v", err)
	}

	// More writes land while the follower is down; on restart it resumes
	// from its local positions — no re-bootstrap.
	mutate(t, primary, 300, 40)
	f2, err := StartFollower(ctx, fastFollowerOptions(dir, srv.URL))
	if err != nil {
		t.Fatalf("restarting follower: %v", err)
	}
	defer f2.Close()
	waitMirrored(t, f2, primary)
	if got := f2.Status().Resyncs; got != 0 {
		t.Fatalf("restart resorted to %d resync(s); should have resumed from its token", got)
	}
	requireEqualState(t, primary, f2.Index())
}

// TestFollowerSurvivesInterruptedResync restarts a follower on each
// state a crash inside installMirror can leave: a half-fetched staging
// directory beside an intact mirror, and the mirror renamed away before
// its replacement was renamed in. Either way the follower must come up,
// converge bit-identically, and leave no staging directory behind.
func TestFollowerSurvivesInterruptedResync(t *testing.T) {
	primary, srv := startPrimary(t, 2, 30)
	dir := filepath.Join(t.TempDir(), "mirror")
	ctx := context.Background()
	start := func() *Follower {
		t.Helper()
		f, err := StartFollower(ctx, fastFollowerOptions(dir, srv.URL))
		if err != nil {
			t.Fatalf("starting follower: %v", err)
		}
		return f
	}
	stop := func(f *Follower) {
		t.Helper()
		if err := f.Close(); err != nil {
			t.Fatalf("closing follower: %v", err)
		}
	}
	requireNoLeftovers := func() {
		t.Helper()
		for _, d := range []string{dir + ".resync", dir + ".old"} {
			if _, err := os.Stat(d); !os.IsNotExist(err) {
				t.Fatalf("%s survived the resync (stat: %v)", d, err)
			}
		}
	}

	f := start()
	mutate(t, primary, 200, 20)
	waitMirrored(t, f, primary)
	stop(f)

	// Crash while staging: the intact mirror resumes, and the next resync
	// (forced by a retune) clears the stale stage before fetching.
	if err := os.MkdirAll(filepath.Join(dir+".resync", "shard-000"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir+".resync", "MANIFEST"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	f = start()
	waitMirrored(t, f, primary)
	if _, err := primary.Retune(); err != nil {
		t.Fatalf("retune: %v", err)
	}
	mutate(t, primary, 300, 20)
	waitFor(t, "resync", func() bool { return f.Status().Resyncs > 0 })
	waitMirrored(t, f, primary)
	requireEqualState(t, primary, f.Index())
	requireNoLeftovers()
	stop(f)

	// Crash between the renames: no mirror at Dir, the old one at
	// Dir+".old". The follower bootstraps afresh and removes the old one
	// on the way.
	if err := os.Rename(dir, dir+".old"); err != nil {
		t.Fatal(err)
	}
	mutate(t, primary, 400, 20)
	f = start()
	defer f.Close()
	waitMirrored(t, f, primary)
	requireEqualState(t, primary, f.Index())
	requireNoLeftovers()
}

// cuttingTransport breaks /replica/stream response bodies after a
// scripted number of bytes, one entry per connection attempt; once the
// script runs dry, streams flow uncut.
type cuttingTransport struct {
	base http.RoundTripper
	cuts []int64
	next atomic.Int64
}

func (ct *cuttingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := ct.base.RoundTrip(req)
	if err != nil || !strings.HasSuffix(req.URL.Path, "/replica/stream") {
		return resp, err
	}
	i := ct.next.Add(1) - 1
	if int(i) >= len(ct.cuts) {
		return resp, nil
	}
	resp.Body = &cutBody{rc: resp.Body, left: ct.cuts[i]}
	return resp, nil
}

type cutBody struct {
	rc   io.ReadCloser
	left int64
}

func (cb *cutBody) Read(p []byte) (int, error) {
	if cb.left <= 0 {
		return 0, fmt.Errorf("stream cut by test")
	}
	if int64(len(p)) > cb.left {
		p = p[:cb.left]
	}
	n, err := cb.rc.Read(p)
	cb.left -= int64(n)
	if err == nil && cb.left <= 0 {
		err = fmt.Errorf("stream cut by test")
	}
	return n, err
}

func (cb *cutBody) Close() error { return cb.rc.Close() }

// TestFollowerSurvivesStreamCuts severs the stream at a sweep of byte
// offsets — mid-magic, mid-frame-header, mid-payload, mid-watermark —
// and requires the follower to reconnect from its resume tokens to
// bit-identical state every time.
func TestFollowerSurvivesStreamCuts(t *testing.T) {
	primary, srv := startPrimary(t, 2, 30)
	mutate(t, primary, 400, 50)

	var cuts []int64
	for c := int64(1); c < 64; c += 3 {
		cuts = append(cuts, c) // deep into the magic and first frames
	}
	for c := int64(64); c < 6000; c = c*2 + 13 {
		cuts = append(cuts, c) // mid-stream at growing depths
	}
	ct := &cuttingTransport{base: http.DefaultTransport, cuts: cuts}
	opt := fastFollowerOptions(t.TempDir(), srv.URL)
	opt.Client = &http.Client{Transport: ct}
	opt.ReconnectBackoff = time.Millisecond

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f, err := StartFollower(ctx, opt)
	if err != nil {
		t.Fatalf("starting follower: %v", err)
	}
	defer f.Close()
	waitFor(t, "all scripted cuts to fire", func() bool {
		return int(ct.next.Load()) > len(cuts)
	})
	waitMirrored(t, f, primary)
	if got := f.Status().Reconnects; got < uint64(len(cuts)) {
		t.Fatalf("only %d reconnects for %d scripted cuts", got, len(cuts))
	}
	requireEqualState(t, primary, f.Index())
}

// TestFollowerCrashAtEveryByteOffset is the crash-injection sweep: a
// caught-up follower's live WAL segment is truncated to EVERY byte
// offset (simulating a SIGKILL mid-write at that exact point), reopened,
// and must resume from its recovered token to bit-identical state.
func TestFollowerCrashAtEveryByteOffset(t *testing.T) {
	primary, srv := startPrimary(t, 1, 10)
	mutate(t, primary, 500, 12)

	ctx := context.Background()
	golden := t.TempDir()
	f, err := StartFollower(ctx, fastFollowerOptions(golden, srv.URL))
	if err != nil {
		t.Fatalf("starting follower: %v", err)
	}
	waitMirrored(t, f, primary)
	if err := f.Close(); err != nil {
		t.Fatalf("closing follower: %v", err)
	}
	want := saveBytes(t, primary)

	// Find the follower's live segment.
	names, err := filepath.Glob(filepath.Join(golden, "shard-000", "wal-*.log"))
	if err != nil || len(names) == 0 {
		t.Fatalf("finding follower segment: %v (%d files)", err, len(names))
	}
	live := names[len(names)-1]
	data, err := os.ReadFile(live)
	if err != nil {
		t.Fatal(err)
	}

	for off := 0; off <= len(data); off++ {
		dir := t.TempDir()
		err := filepath.WalkDir(golden, func(path string, e fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			rel, err := filepath.Rel(golden, path)
			if err != nil {
				return err
			}
			if e.IsDir() {
				return os.MkdirAll(filepath.Join(dir, rel), 0o755)
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			if path == live {
				src = src[:off]
			}
			return os.WriteFile(filepath.Join(dir, rel), src, 0o644)
		})
		if err != nil {
			t.Fatal(err)
		}
		fc, err := StartFollower(ctx, fastFollowerOptions(dir, srv.URL))
		if err != nil {
			t.Fatalf("offset %d: reopening follower: %v", off, err)
		}
		waitMirrored(t, fc, primary)
		got := saveBytes(t, fc.Index())
		if err := fc.Close(); err != nil {
			t.Fatalf("offset %d: closing: %v", off, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("offset %d: follower resumed to divergent state", off)
		}
	}
}

// TestFollowerRotationLockstep drives checkpoint rotations on the
// primary mid-stream and requires the follower to rotate its own chain
// in lockstep, staying byte-identical across generations.
func TestFollowerRotationLockstep(t *testing.T) {
	primary, srv := startPrimary(t, 2, 30)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f, err := StartFollower(ctx, fastFollowerOptions(t.TempDir(), srv.URL))
	if err != nil {
		t.Fatalf("starting follower: %v", err)
	}
	defer f.Close()
	waitMirrored(t, f, primary)

	// Catch up between rotations: the primary retains one sealed
	// generation (recovery's Keep), so a follower within one rotation
	// follows in lockstep; only one 2+ generations behind re-bootstraps.
	for round := 0; round < 3; round++ {
		mutate(t, primary, 600+round*50, 25)
		if err := primary.Checkpoint(); err != nil {
			t.Fatalf("round %d: checkpoint: %v", round, err)
		}
		mutate(t, primary, 620+round*50, 5)
		waitMirrored(t, f, primary)
	}
	if got := f.Status().Resyncs; got != 0 {
		t.Fatalf("follower re-bootstrapped %d time(s); rotations should replicate in lockstep", got)
	}

	pPos, err := primary.ReplicaPositions()
	if err != nil {
		t.Fatal(err)
	}
	fPos, err := f.Index().ReplicaPositions()
	if err != nil {
		t.Fatal(err)
	}
	for si := range pPos {
		if pPos[si] != fPos[si] {
			t.Fatalf("shard %d chains diverge: primary %s, follower %s", si, pPos[si], fPos[si])
		}
		if pPos[si].Generation < 2 {
			t.Fatalf("shard %d never rotated (generation %d)", si, pPos[si].Generation)
		}
	}
	requireEqualState(t, primary, f.Index())
}

// TestFollowerResyncsAcrossRetune bumps the primary's plan generation
// mid-stream; the follower cannot replicate a plan derivation, so it
// must detect the change, re-bootstrap, and converge on the new plan.
func TestFollowerResyncsAcrossRetune(t *testing.T) {
	primary, srv := startPrimary(t, 2, 40)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f, err := StartFollower(ctx, fastFollowerOptions(t.TempDir(), srv.URL))
	if err != nil {
		t.Fatalf("starting follower: %v", err)
	}
	defer f.Close()
	waitMirrored(t, f, primary)

	mutate(t, primary, 700, 30)
	rep, err := primary.Retune()
	if err != nil {
		t.Fatalf("retune: %v", err)
	}
	if rep.Generation == 0 {
		t.Fatal("retune did not advance the plan generation")
	}
	mutate(t, primary, 800, 20)

	waitFor(t, "follower resync", func() bool { return f.Status().Resyncs >= 1 })
	waitMirrored(t, f, primary)
	waitFor(t, "plan generation convergence", func() bool {
		return f.Status().PlanGeneration == rep.Generation
	})
	requireEqualState(t, primary, f.Index())
}
