package recovery

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/wal"
)

// toyState is a minimal replayable state: a map of live sets keyed by sid,
// with JSON checkpoints. It mirrors the contract the real index obeys —
// inserts assign the recorded sid, deletes remove it.
type toyState struct {
	Sets map[uint32][]string
	Next uint32
}

func newToy() *toyState { return &toyState{Sets: map[uint32][]string{}} }

func (s *toyState) hooks() Hooks {
	return Hooks{
		Load: func(r io.Reader) error {
			loaded := newToy()
			if err := json.NewDecoder(r).Decode(loaded); err != nil {
				return err
			}
			*s = *loaded
			if s.Sets == nil {
				s.Sets = map[uint32][]string{}
			}
			return nil
		},
		Apply: func(rec wal.Record) error {
			switch rec.Op {
			case wal.OpInsert:
				if rec.SID != s.Next {
					return fmt.Errorf("toy: replay sid %d, state expects %d", rec.SID, s.Next)
				}
				s.Sets[rec.SID] = append([]string(nil), rec.Elements...)
				s.Next++
			case wal.OpDelete:
				if _, ok := s.Sets[rec.SID]; !ok {
					return fmt.Errorf("toy: delete of absent sid %d", rec.SID)
				}
				delete(s.Sets, rec.SID)
			}
			return nil
		},
		Save: func(w io.Writer) error {
			return json.NewEncoder(w).Encode(s)
		},
	}
}

func (s *toyState) insert(t *testing.T, l *Log, elems ...string) uint32 {
	t.Helper()
	sid := s.Next
	s.Sets[sid] = elems
	s.Next++
	if err := l.Append(wal.Record{Op: wal.OpInsert, SID: sid, Elements: elems}); err != nil {
		t.Fatalf("append insert: %v", err)
	}
	return sid
}

func (s *toyState) remove(t *testing.T, l *Log, sid uint32) {
	t.Helper()
	delete(s.Sets, sid)
	if err := l.Append(wal.Record{Op: wal.OpDelete, SID: sid}); err != nil {
		t.Fatalf("append delete: %v", err)
	}
}

func openToy(t *testing.T, opt Options) (*toyState, *Log, bool) {
	t.Helper()
	s := newToy()
	l, found, err := Open(opt, s.hooks())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s, l, found
}

func TestFreshDirLifecycle(t *testing.T) {
	dir := t.TempDir()
	opt := Options{Dir: dir, Sync: wal.SyncNever}
	s, l, found := openToy(t, opt)
	if found {
		t.Fatal("found state in empty dir")
	}
	// Append before any checkpoint must fail: no base to replay onto.
	if err := l.Append(wal.Record{Op: wal.OpDelete, SID: 0}); err == nil {
		t.Fatal("Append before first checkpoint succeeded")
	}
	if err := l.Checkpoint(); err != nil {
		t.Fatalf("first Checkpoint: %v", err)
	}
	s.insert(t, l, "a", "b")
	s.insert(t, l, "c")
	s.remove(t, l, 0)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, l2, found := openToy(t, opt)
	if !found {
		t.Fatal("no state recovered")
	}
	defer l2.Close()
	if !reflect.DeepEqual(s.Sets, s2.Sets) || s.Next != s2.Next {
		t.Fatalf("recovered %+v, want %+v", s2, s)
	}
	// And the log is appendable right where it left off.
	s2.insert(t, l2, "d")
}

func TestRotationAndCompaction(t *testing.T) {
	dir := t.TempDir()
	opt := Options{Dir: dir, Sync: wal.SyncNever, CompactBytes: 64, Keep: 1}
	s, l, _ := openToy(t, opt)
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Enough traffic to force several automatic rotations.
	for i := 0; i < 40; i++ {
		s.insert(t, l, strings.Repeat("x", 16))
	}
	if got := l.Seq(); got < 3 {
		t.Fatalf("expected several rotations, at generation %d", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	cps, wals, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Keep=1 retains the current and one prior generation at most.
	if len(cps) > 2 || len(wals) > 2 {
		t.Fatalf("compaction left %d checkpoints, %d wals", len(cps), len(wals))
	}
	s2, l2, found := openToy(t, opt)
	if !found {
		t.Fatal("no state recovered after rotation")
	}
	defer l2.Close()
	if !reflect.DeepEqual(s.Sets, s2.Sets) {
		t.Fatalf("post-rotation recovery mismatch")
	}
}

// TestCorruptNewestCheckpointFallsBack: a damaged newest checkpoint must
// be skipped, with recovery proceeding through the previous generation and
// its chained logs — reaching the same final state.
func TestCorruptNewestCheckpointFallsBack(t *testing.T) {
	dir := t.TempDir()
	opt := Options{Dir: dir, Sync: wal.SyncNever, CompactBytes: -1, Keep: 2}
	s, l, _ := openToy(t, opt)
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.insert(t, l, "a")
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.insert(t, l, "b")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip a byte inside the newest checkpoint's payload.
	path := checkpointPath(dir, 2)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(ckptMagic)+1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, l2, found := openToy(t, opt)
	if !found {
		t.Fatal("no state recovered")
	}
	defer l2.Close()
	if !reflect.DeepEqual(s.Sets, s2.Sets) {
		t.Fatalf("fallback recovery: got %+v, want %+v", s2.Sets, s.Sets)
	}
	// The corrupt checkpoint described reachable state (wal-1 replays fully,
	// so generation 2 is reachable); recovery continues through wal-2 and
	// keeps appending into the newest segment.
	if l2.Seq() != 2 {
		t.Fatalf("recovered at generation %d, want 2", l2.Seq())
	}
}

// TestTornTailMidChain: when an OLDER segment in the chain has a torn
// tail, later generations are unreachable and must be dropped; recovery
// lands on the valid prefix.
func TestTornTailMidChain(t *testing.T) {
	dir := t.TempDir()
	opt := Options{Dir: dir, Sync: wal.SyncNever, CompactBytes: -1, Keep: 10}
	s, l, _ := openToy(t, opt)
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.insert(t, l, "a")
	s.insert(t, l, "b")
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.insert(t, l, "c")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt checkpoint 2 so recovery must start from checkpoint 1, and
	// tear the tail off wal-1 so the "b" insert is lost — generation 2
	// becomes unreachable.
	ckpt2 := checkpointPath(dir, 2)
	data, err := os.ReadFile(ckpt2)
	if err != nil {
		t.Fatal(err)
	}
	data[len(ckptMagic)] ^= 0xFF
	if err := os.WriteFile(ckpt2, data, 0o644); err != nil {
		t.Fatal(err)
	}
	w1 := walPath(dir, 1)
	wdata, err := os.ReadFile(w1)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(w1, wdata[:len(wdata)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	s2, l2, found := openToy(t, opt)
	if !found {
		t.Fatal("no state recovered")
	}
	defer l2.Close()
	want := map[uint32][]string{0: {"a"}}
	if !reflect.DeepEqual(s2.Sets, want) {
		t.Fatalf("got %+v, want %+v", s2.Sets, want)
	}
	if l2.Seq() != 1 {
		t.Fatalf("landed at generation %d, want 1", l2.Seq())
	}
	// The unreachable generation-2 files must be gone.
	if _, err := os.Stat(walPath(dir, 2)); !os.IsNotExist(err) {
		t.Fatalf("unreachable wal-2 still present (err=%v)", err)
	}
	if _, err := os.Stat(ckpt2); !os.IsNotExist(err) {
		t.Fatalf("unreachable checkpoint-2 still present (err=%v)", err)
	}
	// New writes continue from the recovered prefix.
	if sid := s2.insert(t, l2, "d"); sid != 1 {
		t.Fatalf("next insert got sid %d, want 1", sid)
	}
}

// TestAllCheckpointsCorrupt: when every checkpoint is damaged, Open must
// fail with an error rather than silently handing back an empty state that
// a caller might checkpoint over the real data.
func TestAllCheckpointsCorrupt(t *testing.T) {
	dir := t.TempDir()
	opt := Options{Dir: dir, Sync: wal.SyncNever, CompactBytes: -1}
	s, l, _ := openToy(t, opt)
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.insert(t, l, "a")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := checkpointPath(dir, 1)
	if err := os.Truncate(path, 5); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(opt, newToy().hooks()); err == nil {
		t.Fatal("Open succeeded with only a corrupt checkpoint")
	}
}

// TestCheckpointFileSeal exercises loadCheckpoint against every
// single-byte corruption and truncation of a real checkpoint file.
func TestCheckpointFileSeal(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seal.snap")
	payload := []byte(`{"Sets":{"0":["alpha","beta"]},"Next":1}` + "\n")
	if err := writeCheckpoint(path, func(w io.Writer) error {
		_, err := w.Write(payload)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	load := func(p string) ([]byte, error) {
		var got []byte
		err := loadCheckpoint(p, func(r io.Reader) error {
			var rerr error
			got, rerr = io.ReadAll(r)
			return rerr
		})
		return got, err
	}
	got, err := load(path)
	if err != nil {
		t.Fatalf("pristine load: %v", err)
	}
	if string(got) != string(payload) {
		t.Fatalf("payload mismatch: %q", got)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mut := filepath.Join(dir, "mut.snap")
	for off := 0; off < len(data); off++ {
		corrupt := append([]byte(nil), data...)
		corrupt[off] ^= 0x01
		if err := os.WriteFile(mut, corrupt, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := load(mut); err == nil {
			t.Fatalf("flip at offset %d loaded successfully", off)
		}
	}
	for cut := 0; cut < len(data); cut++ {
		if err := os.WriteFile(mut, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := load(mut); err == nil {
			t.Fatalf("truncation to %d loaded successfully", cut)
		}
	}
}

func TestOrphanWalsError(t *testing.T) {
	dir := t.TempDir()
	// A wal with no checkpoint base is unrecoverable context — Open must
	// refuse rather than report a clean empty state.
	w, err := wal.OpenWriter(walPath(dir, 1), 0, wal.SyncNever, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(wal.Record{Op: wal.OpCheckpoint, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(Options{Dir: dir}, newToy().hooks()); err == nil {
		t.Fatal("Open accepted orphan wal segments")
	}
}

func TestParseGen(t *testing.T) {
	var seq uint64
	good := fmt.Sprintf("checkpoint-%016d.snap", 42)
	if !parseGen(good, "checkpoint-", ".snap", &seq) || seq != 42 {
		t.Fatalf("parseGen(%q) failed (seq=%d)", good, seq)
	}
	for _, bad := range []string{
		"checkpoint-42.snap",                  // not fixed-width
		"checkpoint-00000000000000x2.snap",    // non-digit
		"checkpoint-0000000000000042.snap.gz", // wrong suffix
		"wal-0000000000000042.snap",           // wrong prefix
	} {
		if parseGen(bad, "checkpoint-", ".snap", &seq) {
			t.Errorf("parseGen accepted %q", bad)
		}
	}
}

// TestPaddedSegmentMidChain: a crash between rotation and the outgoing
// writer's Close leaves the old segment with its preallocation padding
// intact. A purely zeroed tail must not break the chain — fallback
// recovery through that segment reaches the newest generation. A nonzero
// byte in the tail, by contrast, is a torn frame and cuts the chain.
func TestPaddedSegmentMidChain(t *testing.T) {
	build := func(t *testing.T) (string, Options, *toyState) {
		dir := t.TempDir()
		opt := Options{Dir: dir, Sync: wal.SyncNever, CompactBytes: -1, Keep: 2, PreallocBytes: 4096}
		s, l, _ := openToy(t, opt)
		if err := l.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		s.insert(t, l, "a")
		if err := l.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		s.insert(t, l, "b")
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		// Rotation trimmed wal-1's padding on Close; restore it to simulate
		// the crash window where the trim never ran.
		w1, err := os.OpenFile(walPath(dir, 1), os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w1.Write(make([]byte, 1024)); err != nil {
			t.Fatal(err)
		}
		if err := w1.Close(); err != nil {
			t.Fatal(err)
		}
		// Corrupt the newest checkpoint so recovery must fall back through
		// the padded wal-1.
		ckpt2 := checkpointPath(dir, 2)
		data, err := os.ReadFile(ckpt2)
		if err != nil {
			t.Fatal(err)
		}
		data[len(ckptMagic)+1] ^= 0xFF
		if err := os.WriteFile(ckpt2, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return dir, opt, s
	}

	t.Run("zero tail chains through", func(t *testing.T) {
		_, opt, s := build(t)
		s2, l2, found := openToy(t, opt)
		if !found {
			t.Fatal("no state recovered")
		}
		defer l2.Close()
		if !reflect.DeepEqual(s.Sets, s2.Sets) {
			t.Fatalf("got %+v, want %+v", s2.Sets, s.Sets)
		}
		if l2.Seq() != 2 {
			t.Fatalf("recovered at generation %d, want 2", l2.Seq())
		}
	})

	t.Run("nonzero tail cuts the chain", func(t *testing.T) {
		dir, opt, _ := build(t)
		f, err := os.OpenFile(walPath(dir, 1), os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		fi, err := f.Stat()
		if err != nil {
			t.Fatal(err)
		}
		// One nonzero byte in the middle of the padding: a torn frame.
		if _, err := f.WriteAt([]byte{0x5A}, fi.Size()-100); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		s2, l2, found := openToy(t, opt)
		if !found {
			t.Fatal("no state recovered")
		}
		defer l2.Close()
		want := map[uint32][]string{0: {"a"}}
		if !reflect.DeepEqual(s2.Sets, want) {
			t.Fatalf("got %+v, want %+v", s2.Sets, want)
		}
		if l2.Seq() != 1 {
			t.Fatalf("landed at generation %d, want 1", l2.Seq())
		}
	})
}

// TestCheckpointSyncFailureNotPublished makes the checkpoint's fsync fail
// and checks that nothing is published under the checkpoint's name. The
// temp file is a symlink to the null device, so every write succeeds and
// only Sync fails (EINVAL): a writer that dropped Sync's error would
// rename the symlink into place as a "durable" checkpoint.
func TestCheckpointSyncFailureNotPublished(t *testing.T) {
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	syncErr := null.Sync()
	null.Close()
	if syncErr == nil {
		t.Skip("the null device accepts fsync on this platform")
	}
	path := filepath.Join(t.TempDir(), "sync.snap")
	if err := os.Symlink(os.DevNull, path+".tmp"); err != nil {
		t.Fatal(err)
	}
	err = writeCheckpoint(path, func(w io.Writer) error {
		_, err := w.Write([]byte(`{"Sets":{},"Next":0}`))
		return err
	})
	if err == nil {
		t.Fatal("writeCheckpoint succeeded although Sync failed")
	}
	if !strings.Contains(err.Error(), "syncing checkpoint") {
		t.Fatalf("error %q does not name the failed sync", err)
	}
	if _, err := os.Lstat(path); !os.IsNotExist(err) {
		t.Fatalf("checkpoint published after a failed sync (Lstat: %v)", err)
	}
}
