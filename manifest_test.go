package ssr

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/recovery"
	"repro/internal/wal"
)

// The MANIFEST version field is the forward-compatibility gate for the
// whole durable image: a reader must refuse versions it does not know
// (the image may rely on invariants this code predates) while
// tolerating unknown FIELDS within a known version, so additive
// evolution needs no bump. These tests pin both halves of that
// contract by rewriting a real sharded image's MANIFEST, and pin the one
// layout every durable directory has.

// buildShardedDir creates a small sharded durable image and returns its
// directory with the index closed, ready for MANIFEST surgery.
func buildShardedDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	ix, err := CreateDurable(dir, bookstore(), durableShardedBuildOpts(3), DurableOptions{Sync: SyncNever})
	if err != nil {
		t.Fatalf("CreateDurable: %v", err)
	}
	if err := ix.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return dir
}

// rewriteManifest applies fn to the decoded MANIFEST JSON and writes the
// result back.
func rewriteManifest(t *testing.T, dir string, fn func(map[string]any)) {
	t.Helper()
	path := filepath.Join(dir, "MANIFEST")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading MANIFEST: %v", err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("decoding MANIFEST: %v", err)
	}
	fn(doc)
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatalf("writing MANIFEST: %v", err)
	}
}

func TestManifestCurrentVersionRoundTrips(t *testing.T) {
	dir := buildShardedDir(t)
	raw, err := os.ReadFile(filepath.Join(dir, "MANIFEST"))
	if err != nil {
		t.Fatal(err)
	}
	var man durableManifest
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	if man.Version != manifestVersion {
		t.Fatalf("freshly written MANIFEST carries version %d, want %d", man.Version, manifestVersion)
	}
	re, err := OpenDurable(dir, DurableOptions{Sync: SyncNever})
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	defer re.Close()
	if re.Shards() != 3 {
		t.Fatalf("reopened with %d shards, want 3", re.Shards())
	}
}

func TestManifestFutureVersionRefused(t *testing.T) {
	dir := buildShardedDir(t)
	rewriteManifest(t, dir, func(doc map[string]any) {
		doc["version"] = 99
	})
	_, err := OpenDurable(dir, DurableOptions{Sync: SyncNever})
	if err == nil {
		t.Fatal("OpenDurable accepted a version-99 MANIFEST")
	}
	msg := err.Error()
	if !strings.Contains(msg, "version 99") || !strings.Contains(msg, "newer release") {
		t.Fatalf("future-version error should name the version and point at the newer release: %v", err)
	}
}

func TestManifestMissingVersionRefused(t *testing.T) {
	// A MANIFEST with no version field decodes as version 0 — below the
	// supported floor. Such an image was never written by any release of
	// this code, so refusing it beats guessing.
	dir := buildShardedDir(t)
	rewriteManifest(t, dir, func(doc map[string]any) {
		delete(doc, "version")
	})
	if _, err := OpenDurable(dir, DurableOptions{Sync: SyncNever}); err == nil {
		t.Fatal("OpenDurable accepted a MANIFEST without a version field")
	}
}

func TestManifestUnknownFieldsTolerated(t *testing.T) {
	dir := buildShardedDir(t)
	rewriteManifest(t, dir, func(doc map[string]any) {
		doc["x_future_hint"] = "replica-set-7"
		doc["x_extra"] = []any{1.0, 2.0}
	})
	re, err := OpenDurable(dir, DurableOptions{Sync: SyncNever})
	if err != nil {
		t.Fatalf("unknown MANIFEST fields within a known version must load: %v", err)
	}
	defer re.Close()
	if re.Shards() != 3 {
		t.Fatalf("reopened with %d shards, want 3", re.Shards())
	}
}

func TestManifestVersion1Refused(t *testing.T) {
	dir := buildShardedDir(t)
	rewriteManifest(t, dir, func(doc map[string]any) {
		doc["version"] = 1
	})
	_, err := OpenDurable(dir, DurableOptions{Sync: SyncNever})
	if err == nil || !strings.Contains(err.Error(), "version 1 ") {
		t.Fatalf("OpenDurable of a version-1 MANIFEST: %v, want the version gate's error", err)
	}
}

// TestManifestVersion2Refused seals a version-2 directory — a MANIFEST of
// that version and lanes whose checkpoints carry the retired SSRPUB1
// format — and checks that OpenDurable refuses it with an error naming
// that format, that CreateDurable refuses it too, and that neither
// touches a byte.
func TestManifestVersion2Refused(t *testing.T) {
	dir := t.TempDir()
	ix, err := Build(bookstore(), durableShardedBuildOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	refuse := errors.New("empty lane")
	for si := 0; si < 2; si++ {
		log, _, err := recovery.Open(recovery.Options{Dir: shardDirPath(dir, si)}, recovery.Hooks{
			Load:  func(io.Reader) error { return refuse },
			Apply: func(wal.Record) error { return refuse },
			Save: func(w io.Writer) error {
				var lane bytes.Buffer
				if err := ix.saveShard(&lane, si); err != nil {
					return err
				}
				_, err := io.WriteString(w, "SSRPUB1\n"+lane.String()[len("SSRIMG1\n"):])
				return err
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := log.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := writeManifest(dir, durableManifest{Version: 2, Shards: 2, RouterSeed: ix.inner.RouterSeed()}); err != nil {
		t.Fatal(err)
	}
	before := readTree(t, dir)

	_, err = OpenDurable(dir, DurableOptions{Sync: SyncNever})
	if err == nil || errors.Is(err, ErrNoDurableState) || !strings.Contains(err.Error(), "version 2 ") || !strings.Contains(err.Error(), "SSRPUB1") {
		t.Fatalf("OpenDurable of a version-2 directory: %v, want an error naming the version and the format", err)
	}
	if _, err := CreateDurable(dir, bookstore(), durableShardedBuildOpts(2), DurableOptions{Sync: SyncNever}); err == nil {
		t.Fatal("CreateDurable over a version-2 directory succeeded")
	}
	if after := readTree(t, dir); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Fatal("refusing a version-2 directory changed it")
	}
}

// assertLaneLayout checks that dir holds a version-3 MANIFEST for shards
// lanes, one shard-NNN/ directory per lane, and nothing else at the top.
func assertLaneLayout(t *testing.T, dir string, shards int) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, "MANIFEST"))
	if err != nil {
		t.Fatal(err)
	}
	var man durableManifest
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	if man.Version != 3 || man.Shards != shards {
		t.Fatalf("MANIFEST %s, want version 3 for %d shards", raw, shards)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var lanes []string
	for _, e := range entries {
		switch {
		case e.Name() == "MANIFEST":
		case e.IsDir() && strings.HasPrefix(e.Name(), "shard-"):
			lanes = append(lanes, e.Name())
		default:
			t.Errorf("%s holds %q at the top level", dir, e.Name())
		}
	}
	want := make([]string, shards)
	for si := range want {
		want[si] = fmt.Sprintf("shard-%03d", si)
	}
	if fmt.Sprint(lanes) != fmt.Sprint(want) {
		t.Fatalf("%s holds lanes %v, want %v", dir, lanes, want)
	}
}

// TestDurableLayoutEveryShardCount pins the one durable layout: one shard
// or four, a directory is a MANIFEST plus shard-NNN/ lanes, fresh and
// after a close and reopen.
func TestDurableLayoutEveryShardCount(t *testing.T) {
	for _, shards := range []int{1, 4} {
		dir := t.TempDir()
		ix, err := CreateDurable(dir, bookstore(), durableShardedBuildOpts(shards), DurableOptions{Sync: SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		assertLaneLayout(t, dir, shards)
		applyOps(t, ix, workloadOps(10))
		if err := ix.Close(); err != nil {
			t.Fatal(err)
		}
		re, err := OpenDurable(dir, DurableOptions{Sync: SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
		assertLaneLayout(t, dir, shards)
	}
}

// TestOneShardLaneCheckpointIsSave pins the one checkpoint codec: a
// one-shard lane's checkpoint payload is byte-for-byte the index's Save.
func TestOneShardLaneCheckpointIsSave(t *testing.T) {
	dir := t.TempDir()
	ix, err := CreateDurable(dir, bookstore(), durableBuildOpts(), DurableOptions{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	applyOps(t, ix, workloadOps(10))
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	var payload []byte
	log, found, err := recovery.Open(recovery.Options{Dir: filepath.Join(dir, "shard-000")}, recovery.Hooks{
		Load: func(r io.Reader) (err error) {
			payload, err = io.ReadAll(r)
			return err
		},
		Apply: func(wal.Record) error { return errors.New("the final checkpoint leaves no tail") },
		Save:  func(io.Writer) error { return errors.New("not saved") },
	})
	if err != nil || !found {
		t.Fatalf("opening the lane: found=%v, %v", found, err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload, saveBytes(t, ix)) {
		t.Fatal("the one-shard lane's checkpoint payload differs from Save's bytes")
	}
}

// readTree returns every file under dir by relative path, and every
// directory with an empty body.
func readTree(t *testing.T, dir string) map[string]string {
	t.Helper()
	files := make(map[string]string)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			files[strings.TrimPrefix(path, dir)+"/"] = ""
			return err
		}
		data, err := os.ReadFile(path)
		files[strings.TrimPrefix(path, dir)] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestFlatLayoutRefused seals a directory in the flat one-shard layout of
// manifest version 1 releases — checkpoints whose payload is Save's bytes
// and a log beside them, no MANIFEST — and checks that OpenDurable
// refuses it with an error naming the layout, that CreateDurable refuses
// it too, and that neither touches a byte.
func TestFlatLayoutRefused(t *testing.T) {
	dir := t.TempDir()
	ix, err := Build(bookstore(), durableBuildOpts())
	if err != nil {
		t.Fatal(err)
	}
	log, _, err := recovery.Open(recovery.Options{Dir: dir}, recovery.Hooks{
		Load:  func(io.Reader) error { return errors.New("empty directory") },
		Apply: func(wal.Record) error { return errors.New("empty directory") },
		Save:  ix.Save,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := log.Append(wal.Record{Op: wal.OpInsert, SID: 65, Elements: []string{"dune"}}); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	before := readTree(t, dir)

	_, err = OpenDurable(dir, DurableOptions{})
	if err == nil || errors.Is(err, ErrNoDurableState) || !strings.Contains(err.Error(), "flat") || !strings.Contains(err.Error(), "MANIFEST") {
		t.Fatalf("OpenDurable of the flat layout: %v, want an error naming the layout", err)
	}
	if has, err := HasDurableState(dir); err != nil || !has {
		t.Fatalf("HasDurableState of the flat layout = %v, %v", has, err)
	}
	if _, err := CreateDurable(dir, bookstore(), durableBuildOpts(), DurableOptions{}); err == nil {
		t.Fatal("CreateDurable over the flat layout succeeded")
	}
	if after := readTree(t, dir); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Fatalf("refusing the flat layout changed the directory: %d files before, %d after", len(before), len(after))
	}
}
