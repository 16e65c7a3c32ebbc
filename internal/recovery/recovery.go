// Package recovery layers incremental checkpoints and crash recovery on
// top of the write-ahead log (package wal), giving the dynamic index a
// restart path that loses nothing past the sync horizon.
//
// # Directory layout
//
// A durability directory holds numbered generations:
//
//	checkpoint-<seq>.snap   full state snapshot, CRC-sealed (see below)
//	wal-<seq>.log           operations applied AFTER checkpoint <seq>
//
// Generation seq+1 is created by Checkpoint: the current log is synced,
// the state is snapshotted through the Save hook, and a fresh empty log
// segment is opened. Compaction then removes generations older than the
// configured retention. Snapshot writes are crash-atomic (temp file,
// fsync, rename, directory fsync) and the file carries its own header,
// CRC32C and length footer, so a half-written or bit-flipped checkpoint is
// detected and skipped rather than loaded.
//
// # Recovery
//
// Open walks checkpoints newest-first until one loads, then replays log
// segments forward from that generation: wal-<seq>, wal-<seq+1>, ... Each
// segment must open with its own OpCheckpoint header record; replay stops
// at the first torn or corrupt frame (wal.Replay semantics). If a segment
// stops short while later generations exist, those later files describe
// state the valid prefix can no longer reach, so they are deleted — the
// recovered index always equals the state after some prefix of the logged
// operation sequence, never a gapped subsequence. The surviving segment is
// truncated to its valid prefix and appending resumes there.
//
// The package is state-agnostic: checkpoint contents and operation
// semantics live behind the Hooks callbacks, so the public ssr layer can
// drive it without an import cycle.
package recovery

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/wal"
)

// Hooks connects the log to the state it protects.
type Hooks struct {
	// Load reconstructs the state from one checkpoint's verified payload.
	// An error makes Open fall back to the previous generation.
	Load func(r io.Reader) error
	// Apply replays one logged operation (OpInsert or OpDelete) onto the
	// state. An error aborts recovery: it means the log and the state
	// disagree, which truncation cannot fix.
	Apply func(rec wal.Record) error
	// Save snapshots the state for a checkpoint.
	Save func(w io.Writer) error
}

// Options configures a durability directory.
type Options struct {
	// Dir is the durability directory (created if absent).
	Dir string
	// Sync is the log's fsync policy (default wal.SyncAlways).
	Sync wal.Policy
	// SyncEvery is the wal.SyncInterval period (default
	// wal.DefaultSyncInterval).
	SyncEvery time.Duration
	// CompactBytes triggers an automatic checkpoint (and compaction) once
	// the live log segment exceeds this many bytes. 0 selects
	// DefaultCompactBytes; negative disables automatic checkpoints.
	CompactBytes int64
	// Keep is how many generations before the current one compaction
	// retains (default DefaultKeep; negative keeps none).
	Keep int
	// PreallocBytes enables zero-fill preallocation of log segments in
	// chunks of this many bytes (see wal.Writer): per-record syncs become
	// metadata-free fdatasync calls that overlap across shards instead of
	// serializing through the filesystem journal. 0 disables.
	PreallocBytes int64
}

// DefaultCompactBytes is the automatic-checkpoint threshold when none is
// configured.
const DefaultCompactBytes = 8 << 20

// DefaultKeep retains one generation before the current: a corrupt newest
// checkpoint can still recover through its predecessor plus chained logs.
const DefaultKeep = 1

func (o Options) withDefaults() Options {
	if o.CompactBytes == 0 {
		o.CompactBytes = DefaultCompactBytes
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = wal.DefaultSyncInterval
	}
	if o.Keep == 0 {
		o.Keep = DefaultKeep
	}
	if o.Keep < 0 {
		o.Keep = 0
	}
	return o
}

// Log is an open durability directory: a live wal segment plus the
// checkpoint machinery. Append/Checkpoint/Close serialize internally;
// higher layers additionally order Append calls against their own state
// mutations.
type Log struct {
	mu     sync.Mutex
	opt    Options
	h      Hooks
	seq    uint64
	w      *wal.Writer // nil until the first checkpoint exists
	comp   error       // pending automatic-compaction failure, surfaced on Close
	notify func()      // optional post-append/post-checkpoint signal (see SetNotify)
}

// checkpointPath / walPath name generation files. The fixed-width decimal
// keeps lexical and numeric order identical.
func checkpointPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("checkpoint-%016d.snap", seq))
}

func walPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%016d.log", seq))
}

// scanDir returns the checkpoint and wal generation numbers present,
// ascending.
func scanDir(dir string) (cps, wals []uint64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("recovery: reading %s: %w", dir, err)
	}
	for _, e := range entries {
		var seq uint64
		switch {
		case parseGen(e.Name(), "checkpoint-", ".snap", &seq):
			cps = append(cps, seq)
		case parseGen(e.Name(), "wal-", ".log", &seq):
			wals = append(wals, seq)
		}
	}
	sort.Slice(cps, func(i, j int) bool { return cps[i] < cps[j] })
	sort.Slice(wals, func(i, j int) bool { return wals[i] < wals[j] })
	return cps, wals, nil
}

// parseGen matches prefix + 16 decimal digits + suffix.
func parseGen(name, prefix, suffix string, seq *uint64) bool {
	if len(name) != len(prefix)+16+len(suffix) ||
		name[:len(prefix)] != prefix || name[len(name)-len(suffix):] != suffix {
		return false
	}
	digits := name[len(prefix) : len(prefix)+16]
	var v uint64
	for i := 0; i < len(digits); i++ {
		c := digits[i]
		if c < '0' || c > '9' {
			return false
		}
		v = v*10 + uint64(c-'0')
	}
	*seq = v
	return true
}

// DirHasState reports whether dir holds any checkpoint or log files — the
// "open existing vs bootstrap fresh" decision without paying for a full
// recovery. A missing directory has no state.
func DirHasState(dir string) (bool, error) {
	cps, wals, err := scanDir(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return false, nil
		}
		return false, err
	}
	return len(cps) > 0 || len(wals) > 0, nil
}

// Open recovers the state in opt.Dir through the hooks and returns the
// appendable log positioned after the last intact record. found reports
// whether any state was recovered: when false the directory held no
// loadable checkpoint, the hooks were not called, and the caller must
// populate its state and call Checkpoint before Append is usable.
func Open(opt Options, h Hooks) (l *Log, found bool, err error) {
	opt = opt.withDefaults()
	if h.Load == nil || h.Apply == nil || h.Save == nil {
		return nil, false, fmt.Errorf("recovery: all three hooks are required")
	}
	if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
		return nil, false, fmt.Errorf("recovery: creating %s: %w", opt.Dir, err)
	}
	cps, wals, err := scanDir(opt.Dir)
	if err != nil {
		return nil, false, err
	}
	l = &Log{opt: opt, h: h}
	var loadErrs []error
	for i := len(cps) - 1; i >= 0; i-- {
		seq := cps[i]
		if err := loadCheckpoint(checkpointPath(opt.Dir, seq), h.Load); err != nil {
			loadErrs = append(loadErrs, fmt.Errorf("generation %d: %w", seq, err))
			continue
		}
		l.seq = seq
		if err := l.recoverSegments(wals); err != nil {
			return nil, false, err
		}
		return l, true, nil
	}
	if len(loadErrs) > 0 {
		return nil, false, fmt.Errorf("recovery: no loadable checkpoint in %s: %w", opt.Dir, errors.Join(loadErrs...))
	}
	if len(wals) > 0 {
		// Logs without any checkpoint base cannot be replayed onto anything.
		return nil, false, fmt.Errorf("recovery: %s holds %d log segments but no checkpoint", opt.Dir, len(wals))
	}
	return l, false, nil
}

// recoverSegments replays wal segments forward from l.seq, truncates the
// last reachable one to its valid prefix, deletes anything beyond it, and
// opens the writer there.
func (l *Log) recoverSegments(wals []uint64) error {
	dir := l.opt.Dir
	seq := l.seq
	walSet := make(map[uint64]bool, len(wals))
	maxGen := seq
	for _, s := range wals {
		walSet[s] = true
		if s > maxGen {
			maxGen = s
		}
	}
	for {
		path := walPath(dir, seq)
		valid, err := l.replaySegment(path, seq)
		if err != nil {
			return err
		}
		next := seq + 1
		fi, statErr := os.Stat(path)
		// A segment is complete when replay consumed every byte, or when the
		// only bytes past the valid prefix are preallocation zeros: rotation
		// syncs a segment's records before the next generation is born, so a
		// purely zeroed tail cannot hide a lost frame.
		complete := statErr == nil && fi.Size() == valid
		if statErr == nil && !complete && walSet[next] {
			z, err := zerosFrom(path, valid)
			if err != nil {
				return err
			}
			complete = z
		}
		if walSet[next] && complete {
			// This segment replayed to its exact end; the next generation's
			// operations continue from precisely this state.
			seq = next
			continue
		}
		// This is where the reachable history ends: either no later segment
		// exists, or this one has a torn tail and the later files describe
		// unreachable state. Drop everything beyond, keep the valid prefix.
		if err := l.dropBeyond(seq, maxGen); err != nil {
			return err
		}
		w, err := wal.OpenWriter(path, valid, l.opt.Sync, l.opt.SyncEvery, l.opt.PreallocBytes)
		if err != nil {
			return err
		}
		l.seq = seq
		l.w = w
		if valid == 0 {
			// Segment was missing or lost even its header record (crash
			// between checkpoint rename and segment creation): start it
			// fresh with the header.
			if err := w.Append(wal.Record{Op: wal.OpCheckpoint, Seq: seq}); err != nil {
				return errors.Join(err, w.Close())
			}
		}
		return nil
	}
}

// replaySegment applies one segment's operations through the Apply hook,
// returning the valid prefix length. The first record must be the
// segment's own OpCheckpoint header; anything else marks the whole segment
// as unusable (valid 0), which recovery treats like a torn tail at the
// start.
func (l *Log) replaySegment(path string, seq uint64) (int64, error) {
	n := 0
	headerOK := false
	valid, _, err := wal.ReplayFile(path, func(rec wal.Record) error {
		n++
		if n == 1 {
			if rec.Op != wal.OpCheckpoint || rec.Seq != seq {
				return errBadHeader
			}
			headerOK = true
			return nil
		}
		switch rec.Op {
		case wal.OpInsert, wal.OpDelete:
			return l.h.Apply(rec)
		case wal.OpCheckpoint:
			// A stray mid-segment header is corruption the CRC cannot see;
			// stop the same way a torn tail would.
			return errBadHeader
		default:
			return errBadHeader
		}
	})
	if errors.Is(err, errBadHeader) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("recovery: replaying %s: %w", path, err)
	}
	if !headerOK {
		return 0, nil // empty or truncated-at-birth segment
	}
	return valid, nil
}

// errBadHeader marks a segment whose structure (not its frames) is wrong.
var errBadHeader = errors.New("recovery: bad segment structure")

// zerosFrom reports whether every byte of the file at path from offset on
// is zero — the signature of untouched preallocation padding.
func zerosFrom(path string, off int64) (bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return false, fmt.Errorf("recovery: opening %s for padding scan: %w", path, err)
	}
	defer f.Close() // read-only fd
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		return false, fmt.Errorf("recovery: seeking %s: %w", path, err)
	}
	buf := make([]byte, 64<<10)
	for {
		n, err := f.Read(buf)
		for _, b := range buf[:n] {
			if b != 0 {
				return false, nil
			}
		}
		if err != nil {
			if errors.Is(err, io.EOF) {
				return true, nil
			}
			return false, fmt.Errorf("recovery: scanning %s padding: %w", path, err)
		}
	}
}

// dropBeyond removes checkpoint and wal files with generation > seq: they
// are unreachable from the recovered prefix.
func (l *Log) dropBeyond(seq, maxGen uint64) error {
	for s := seq + 1; s <= maxGen; s++ {
		for _, p := range []string{walPath(l.opt.Dir, s), checkpointPath(l.opt.Dir, s)} {
			if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
				return fmt.Errorf("recovery: removing unreachable %s: %w", p, err)
			}
		}
	}
	if maxGen > seq {
		return syncDir(l.opt.Dir)
	}
	return nil
}

// Append logs one operation. When the live segment has grown past
// CompactBytes an automatic checkpoint runs after the append; its failure
// does not fail the append (the record itself is durable) — it is retried
// on later appends and surfaced by Close.
func (l *Log) Append(rec wal.Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.w == nil {
		return fmt.Errorf("recovery: log has no checkpoint base yet (call Checkpoint first)")
	}
	if err := l.w.Append(rec); err != nil {
		return err
	}
	if l.opt.CompactBytes > 0 && l.w.Size() > l.opt.CompactBytes {
		if err := l.checkpointLocked(); err != nil {
			l.comp = fmt.Errorf("recovery: automatic checkpoint: %w", err)
		} else {
			l.comp = nil
		}
	}
	if l.notify != nil {
		l.notify()
	}
	return nil
}

// Checkpoint writes a new generation — snapshot via the Save hook, fresh
// log segment — and compacts old generations per Options.Keep.
func (l *Log) Checkpoint() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.checkpointLocked()
}

func (l *Log) checkpointLocked() error {
	// 1. Make the outgoing segment durable: the snapshot includes its
	// operations, and a fallback recovery through the previous generation
	// must be able to replay them.
	if l.w != nil {
		if err := l.w.Sync(); err != nil {
			return err
		}
	}
	next := l.seq + 1
	// 2. Crash-atomic snapshot write.
	if err := writeCheckpoint(checkpointPath(l.opt.Dir, next), l.h.Save); err != nil {
		return err
	}
	// 3. Fresh segment with its header record, durable before any
	// operation lands in it.
	w, err := wal.OpenWriter(walPath(l.opt.Dir, next), 0, l.opt.Sync, l.opt.SyncEvery, l.opt.PreallocBytes)
	if err != nil {
		return err
	}
	if err := w.Append(wal.Record{Op: wal.OpCheckpoint, Seq: next}); err != nil {
		return errors.Join(err, w.Close())
	}
	if err := w.Sync(); err != nil {
		return errors.Join(err, w.Close())
	}
	// 4. Swap; close the outgoing segment (already synced).
	old := l.w
	l.w = w
	l.seq = next
	var closeErr error
	if old != nil {
		closeErr = old.Close()
	}
	// 5. Compact generations older than the retention window.
	err = errors.Join(closeErr, l.compactLocked())
	if l.notify != nil {
		l.notify()
	}
	return err
}

// compactLocked removes generations older than seq-Keep.
func (l *Log) compactLocked() error {
	if l.seq <= uint64(l.opt.Keep) {
		return nil
	}
	floor := l.seq - uint64(l.opt.Keep)
	cps, wals, err := scanDir(l.opt.Dir)
	if err != nil {
		return err
	}
	removed := false
	var errs []error
	for _, s := range cps {
		if s < floor {
			if err := os.Remove(checkpointPath(l.opt.Dir, s)); err != nil && !os.IsNotExist(err) {
				errs = append(errs, err)
			}
			removed = true
		}
	}
	for _, s := range wals {
		if s < floor {
			if err := os.Remove(walPath(l.opt.Dir, s)); err != nil && !os.IsNotExist(err) {
				errs = append(errs, err)
			}
			removed = true
		}
	}
	if removed {
		errs = append(errs, syncDir(l.opt.Dir))
	}
	return errors.Join(errs...)
}

// Seq returns the current checkpoint generation.
func (l *Log) Seq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Close syncs and closes the live segment, surfacing any pending
// automatic-compaction failure.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	var werr error
	if l.w != nil {
		werr = l.w.Close()
		l.w = nil
	}
	return errors.Join(l.comp, werr)
}

// --- checkpoint file format ---
//
// A checkpoint file is header magic, the Save hook's payload, then a
// 20-byte footer:
//
//	"SSRCKPT1\n" ‖ payload ‖ crc32c(u32 LE) ‖ payloadLen(u64 LE) ‖ "SSRCKPTF"
//
// The footer makes verification independent of the payload's own format:
// a torn write (short file), a truncated payload, or any flipped bit is
// caught before the Load hook sees a byte.

const (
	ckptMagic       = "SSRCKPT1\n"
	ckptFooterMagic = "SSRCKPTF"
	ckptFooterSize  = 4 + 8 + len(ckptFooterMagic)
)

// writeCheckpoint writes a sealed snapshot crash-atomically to path.
func writeCheckpoint(path string, save func(w io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("recovery: creating checkpoint temp: %w", err)
	}
	fail := func(err error) error {
		cerr := f.Close()
		rerr := os.Remove(tmp)
		if os.IsNotExist(rerr) {
			rerr = nil
		}
		return errors.Join(err, cerr, rerr)
	}
	if _, err := f.WriteString(ckptMagic); err != nil {
		return fail(fmt.Errorf("recovery: writing checkpoint header: %w", err))
	}
	sum := crc32.New(castagnoli)
	cw := &countingWriter{w: io.MultiWriter(f, sum)}
	if err := save(cw); err != nil {
		return fail(fmt.Errorf("recovery: snapshotting state: %w", err))
	}
	var footer [ckptFooterSize]byte
	binary.LittleEndian.PutUint32(footer[:4], sum.Sum32())
	binary.LittleEndian.PutUint64(footer[4:12], uint64(cw.n))
	copy(footer[12:], ckptFooterMagic)
	if _, err := f.Write(footer[:]); err != nil {
		return fail(fmt.Errorf("recovery: writing checkpoint footer: %w", err))
	}
	if err := f.Sync(); err != nil {
		return fail(fmt.Errorf("recovery: syncing checkpoint: %w", err))
	}
	if err := f.Close(); err != nil {
		return errors.Join(fmt.Errorf("recovery: closing checkpoint: %w", err), os.Remove(tmp))
	}
	if err := os.Rename(tmp, path); err != nil {
		return errors.Join(fmt.Errorf("recovery: publishing checkpoint: %w", err), os.Remove(tmp))
	}
	return syncDir(filepath.Dir(path))
}

// loadCheckpoint verifies the seal on the checkpoint at path and streams
// its payload into load. Verification happens in a first pass so load
// never observes bytes that later turn out corrupt.
func loadCheckpoint(path string, load func(r io.Reader) error) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("recovery: opening checkpoint: %w", err)
	}
	defer f.Close() // read-only fd; verification reads detect I/O failure
	fi, err := f.Stat()
	if err != nil {
		return fmt.Errorf("recovery: stat checkpoint: %w", err)
	}
	minSize := int64(len(ckptMagic) + ckptFooterSize)
	if fi.Size() < minSize {
		return fmt.Errorf("recovery: checkpoint %s too short (%d bytes)", path, fi.Size())
	}
	header := make([]byte, len(ckptMagic))
	if _, err := io.ReadFull(f, header); err != nil {
		return fmt.Errorf("recovery: reading checkpoint header: %w", err)
	}
	if string(header) != ckptMagic {
		return fmt.Errorf("recovery: %s is not a checkpoint (bad magic %q)", path, header)
	}
	payloadLen := fi.Size() - minSize
	var footer [ckptFooterSize]byte
	if _, err := f.ReadAt(footer[:], fi.Size()-int64(ckptFooterSize)); err != nil {
		return fmt.Errorf("recovery: reading checkpoint footer: %w", err)
	}
	if string(footer[12:]) != ckptFooterMagic {
		return fmt.Errorf("recovery: checkpoint %s footer magic mismatch", path)
	}
	if got := binary.LittleEndian.Uint64(footer[4:12]); got != uint64(payloadLen) {
		return fmt.Errorf("recovery: checkpoint %s length mismatch: footer %d, file %d", path, got, payloadLen)
	}
	payload := io.NewSectionReader(f, int64(len(ckptMagic)), payloadLen)
	sum := crc32.New(castagnoli)
	if _, err := io.Copy(sum, payload); err != nil {
		return fmt.Errorf("recovery: checksumming checkpoint: %w", err)
	}
	if sum.Sum32() != binary.LittleEndian.Uint32(footer[:4]) {
		return fmt.Errorf("recovery: checkpoint %s checksum mismatch", path)
	}
	if _, err := payload.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("recovery: rewinding checkpoint: %w", err)
	}
	return load(payload)
}

// castagnoli mirrors the wal package's CRC32C table for the checkpoint
// seal.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// countingWriter counts payload bytes for the footer.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// syncDir fsyncs a directory so renames and removals within it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("recovery: opening dir for sync: %w", err)
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return errors.Join(fmt.Errorf("recovery: syncing dir: %w", serr), cerr)
	}
	return cerr
}
