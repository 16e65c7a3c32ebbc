// Package replica is the multi-node replication layer: a primary serves
// its per-shard WAL chains and sealed checkpoints over HTTP (Handler), a
// follower bootstraps from the shipped checkpoints and tails the stream
// into a byte-identical local mirror (Follower), and a thin router
// scatter-gathers reads across replicas with hedged requests while
// forwarding writes to the primary alone (Router).
//
// The index-side contract (offset-addressable frame reads, watermarks,
// checkpoint export/import, replica apply) lives in the root package's
// replication.go; this package adds the wire protocol and the processes
// around it. See DESIGN.md "Replication & multi-node serving".
package replica

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	ssr "repro"
	"repro/internal/engine"
)

// Wire protocol. A stream is the magic WireMagic followed by frames:
//
//	kind(u8) ‖ shard(u16 LE) ‖ reserved(u8) ‖ len(u32 LE) ‖ crc32c(u32 LE) ‖ payload
//
// The CRC (Castagnoli, like the WAL's own frames) covers the first four
// header bytes — kind, shard, reserved — and the payload, so a truncated
// or bit-flipped stream fails closed exactly like a torn log tail,
// including flips that land in the frame header itself. Frame payloads:
//
//	KindRecords:   generation(u64) ‖ startOffset(u64) ‖ raw WAL frame bytes
//	               Whole frames only — a chunk never splits a WAL frame —
//	               and the raw bytes are exactly the primary's log bytes
//	               at [startOffset, startOffset+len) of wal-<generation>.
//	KindRotate:    nextGeneration(u64) ‖ planGeneration(u64)
//	               The primary sealed wal-<nextGeneration-1>; the follower
//	               cuts its own local checkpoint and continues. A plan
//	               generation differing from the follower's means the
//	               rotation carries a retune, which a stream cannot
//	               replicate — the follower re-bootstraps instead.
//	KindWatermark: settledSID(u32) ‖ planGeneration(u64) ‖ n(u16) ‖ n×(gen u64 ‖ off u64)
//	               Emitted only after every record the Ends cover has been
//	               emitted (the invariant the follower's sid-ordered merge
//	               gate rests on), and doubles as the heartbeat.
//	KindError:     code(u8) ‖ message
//	               Terminal; the follower reconnects or re-bootstraps per
//	               the code.
//
// A follower's stream request is a resume-token blob (EncodeTokens):
//
//	"SSRTOKN1" ‖ planGeneration(u64) ‖ n(u16) ‖ n×(gen u64 ‖ off u64)

const (
	// WireMagic opens every replication stream.
	WireMagic = "SSRWIRE1"
	// TokenMagic opens every resume-token blob.
	TokenMagic = "SSRTOKN1"

	frameHeaderSize = 12
	// MaxWirePayload bounds one frame's payload: comfortably above the
	// chunk size any primary sends and below anything worth allocating on
	// a decoder's say-so.
	MaxWirePayload = 8 << 20
)

// Frame kinds.
const (
	KindRecords   byte = 1
	KindRotate    byte = 2
	KindWatermark byte = 3
	KindError     byte = 4
)

// KindError codes.
const (
	ErrCodeCompacted   byte = 1 // resume position compacted away: re-bootstrap
	ErrCodePlanChanged byte = 2 // plan generation moved: re-bootstrap
	ErrCodeInternal    byte = 3 // primary-side failure: reconnect
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Frame is one decoded stream frame.
type Frame struct {
	Kind    byte
	Shard   int
	Payload []byte
}

// AppendFrame encodes one frame onto dst.
func AppendFrame(dst []byte, kind byte, shard int, payload []byte) []byte {
	var h [frameHeaderSize]byte
	h[0] = kind
	binary.LittleEndian.PutUint16(h[1:3], uint16(shard))
	binary.LittleEndian.PutUint32(h[4:8], uint32(len(payload)))
	crc := crc32.Checksum(h[0:4], castagnoli)
	crc = crc32.Update(crc, castagnoli, payload)
	binary.LittleEndian.PutUint32(h[8:12], crc)
	dst = append(dst, h[:]...)
	return append(dst, payload...)
}

// ErrBadFrame reports a malformed or corrupt stream frame. The stream is
// unusable past it; reconnect and resume from the last applied position.
var ErrBadFrame = errors.New("replica: bad stream frame")

// FrameReader decodes a stream: the magic once, then frames.
type FrameReader struct {
	r        *bufio.Reader
	gotMagic bool
}

// NewFrameReader wraps r for decoding.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: bufio.NewReaderSize(r, 64<<10)}
}

// Next returns the next frame. io.EOF reports a clean end between
// frames; anything torn or corrupt is ErrBadFrame.
func (fr *FrameReader) Next() (Frame, error) {
	if !fr.gotMagic {
		var magic [len(WireMagic)]byte
		if _, err := io.ReadFull(fr.r, magic[:]); err != nil {
			if errors.Is(err, io.EOF) {
				return Frame{}, io.EOF
			}
			return Frame{}, fmt.Errorf("%w: reading stream magic: %v", ErrBadFrame, err)
		}
		if string(magic[:]) != WireMagic {
			return Frame{}, fmt.Errorf("%w: stream magic %q", ErrBadFrame, magic)
		}
		fr.gotMagic = true
	}
	var h [frameHeaderSize]byte
	if _, err := io.ReadFull(fr.r, h[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return Frame{}, io.EOF
		}
		return Frame{}, fmt.Errorf("%w: reading frame header: %v", ErrBadFrame, err)
	}
	length := binary.LittleEndian.Uint32(h[4:8])
	if length > MaxWirePayload {
		return Frame{}, fmt.Errorf("%w: payload length %d exceeds %d", ErrBadFrame, length, MaxWirePayload)
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(fr.r, payload); err != nil {
		return Frame{}, fmt.Errorf("%w: reading %d-byte payload: %v", ErrBadFrame, length, err)
	}
	crc := crc32.Checksum(h[0:4], castagnoli)
	crc = crc32.Update(crc, castagnoli, payload)
	if crc != binary.LittleEndian.Uint32(h[8:12]) {
		return Frame{}, fmt.Errorf("%w: frame checksum mismatch", ErrBadFrame)
	}
	return Frame{Kind: h[0], Shard: int(binary.LittleEndian.Uint16(h[1:3])), Payload: payload}, nil
}

// RecordsChunk is a KindRecords payload: raw WAL frame bytes of one
// shard's segment, starting at a frame boundary.
type RecordsChunk struct {
	Generation uint64
	Start      int64
	Frames     []byte
}

// EncodeRecords builds a KindRecords payload.
func EncodeRecords(c RecordsChunk) []byte {
	out := make([]byte, 16, 16+len(c.Frames))
	binary.LittleEndian.PutUint64(out[:8], c.Generation)
	binary.LittleEndian.PutUint64(out[8:16], uint64(c.Start))
	return append(out, c.Frames...)
}

// ParseRecords decodes a KindRecords payload.
func ParseRecords(p []byte) (RecordsChunk, error) {
	if len(p) < 16 {
		return RecordsChunk{}, fmt.Errorf("%w: records payload %d bytes", ErrBadFrame, len(p))
	}
	start := binary.LittleEndian.Uint64(p[8:16])
	if start > 1<<62 {
		return RecordsChunk{}, fmt.Errorf("%w: records start offset %d", ErrBadFrame, start)
	}
	return RecordsChunk{
		Generation: binary.LittleEndian.Uint64(p[:8]),
		Start:      int64(start),
		Frames:     p[16:],
	}, nil
}

// Rotate is a KindRotate payload.
type Rotate struct {
	NextGeneration uint64
	PlanGeneration uint64
}

// EncodeRotate builds a KindRotate payload.
func EncodeRotate(rot Rotate) []byte {
	out := make([]byte, 16)
	binary.LittleEndian.PutUint64(out[:8], rot.NextGeneration)
	binary.LittleEndian.PutUint64(out[8:16], rot.PlanGeneration)
	return out
}

// ParseRotate decodes a KindRotate payload.
func ParseRotate(p []byte) (Rotate, error) {
	if len(p) != 16 {
		return Rotate{}, fmt.Errorf("%w: rotate payload %d bytes", ErrBadFrame, len(p))
	}
	return Rotate{
		NextGeneration: binary.LittleEndian.Uint64(p[:8]),
		PlanGeneration: binary.LittleEndian.Uint64(p[8:16]),
	}, nil
}

// EncodeWatermark builds a KindWatermark payload.
func EncodeWatermark(wm ssr.ReplicationWatermark) []byte {
	out := make([]byte, 0, 14+16*len(wm.Ends))
	var b [8]byte
	binary.LittleEndian.PutUint32(b[:4], wm.SettledSID)
	out = append(out, b[:4]...)
	binary.LittleEndian.PutUint64(b[:], wm.PlanGeneration)
	out = append(out, b[:]...)
	binary.LittleEndian.PutUint16(b[:2], uint16(len(wm.Ends)))
	out = append(out, b[:2]...)
	for _, p := range wm.Ends {
		binary.LittleEndian.PutUint64(b[:], p.Generation)
		out = append(out, b[:]...)
		binary.LittleEndian.PutUint64(b[:], uint64(p.Offset))
		out = append(out, b[:]...)
	}
	return out
}

// ParseWatermark decodes a KindWatermark payload.
func ParseWatermark(p []byte) (ssr.ReplicationWatermark, error) {
	if len(p) < 14 {
		return ssr.ReplicationWatermark{}, fmt.Errorf("%w: watermark payload %d bytes", ErrBadFrame, len(p))
	}
	n := int(binary.LittleEndian.Uint16(p[12:14]))
	if n > engine.MaxShards || len(p) != 14+16*n {
		return ssr.ReplicationWatermark{}, fmt.Errorf("%w: watermark with %d ends in %d bytes", ErrBadFrame, n, len(p))
	}
	wm := ssr.ReplicationWatermark{
		SettledSID:     binary.LittleEndian.Uint32(p[:4]),
		PlanGeneration: binary.LittleEndian.Uint64(p[4:12]),
		Ends:           make([]ssr.WALPosition, n),
	}
	for i := 0; i < n; i++ {
		off := binary.LittleEndian.Uint64(p[14+16*i+8 : 14+16*i+16])
		if off > 1<<62 {
			return ssr.ReplicationWatermark{}, fmt.Errorf("%w: watermark offset %d", ErrBadFrame, off)
		}
		wm.Ends[i] = ssr.WALPosition{
			Generation: binary.LittleEndian.Uint64(p[14+16*i : 14+16*i+8]),
			Offset:     int64(off),
		}
	}
	return wm, nil
}

// StreamError is a KindError payload.
type StreamError struct {
	Code    byte
	Message string
}

func (e StreamError) Error() string {
	return fmt.Sprintf("replica: stream error %d: %s", e.Code, e.Message)
}

// EncodeStreamError builds a KindError payload.
func EncodeStreamError(e StreamError) []byte {
	return append([]byte{e.Code}, e.Message...)
}

// ParseStreamError decodes a KindError payload.
func ParseStreamError(p []byte) (StreamError, error) {
	if len(p) < 1 {
		return StreamError{}, fmt.Errorf("%w: empty error payload", ErrBadFrame)
	}
	return StreamError{Code: p[0], Message: string(p[1:])}, nil
}

// EncodeTokens builds the resume-token blob a follower POSTs to open a
// stream: its plan generation plus one chain position per shard.
func EncodeTokens(planGen uint64, pos []ssr.WALPosition) []byte {
	out := make([]byte, 0, len(TokenMagic)+10+16*len(pos))
	out = append(out, TokenMagic...)
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], planGen)
	out = append(out, b[:]...)
	binary.LittleEndian.PutUint16(b[:2], uint16(len(pos)))
	out = append(out, b[:2]...)
	for _, p := range pos {
		binary.LittleEndian.PutUint64(b[:], p.Generation)
		out = append(out, b[:]...)
		binary.LittleEndian.PutUint64(b[:], uint64(p.Offset))
		out = append(out, b[:]...)
	}
	return out
}

// DecodeTokens parses a resume-token blob.
func DecodeTokens(p []byte) (planGen uint64, pos []ssr.WALPosition, err error) {
	if len(p) < len(TokenMagic)+10 {
		return 0, nil, fmt.Errorf("%w: token blob %d bytes", ErrBadFrame, len(p))
	}
	if string(p[:len(TokenMagic)]) != TokenMagic {
		return 0, nil, fmt.Errorf("%w: token magic %q", ErrBadFrame, p[:len(TokenMagic)])
	}
	p = p[len(TokenMagic):]
	planGen = binary.LittleEndian.Uint64(p[:8])
	n := int(binary.LittleEndian.Uint16(p[8:10]))
	if n > engine.MaxShards || len(p) != 10+16*n {
		return 0, nil, fmt.Errorf("%w: token blob with %d positions in %d bytes", ErrBadFrame, n, len(p))
	}
	pos = make([]ssr.WALPosition, n)
	for i := 0; i < n; i++ {
		off := binary.LittleEndian.Uint64(p[10+16*i+8 : 10+16*i+16])
		if off > 1<<62 {
			return 0, nil, fmt.Errorf("%w: token offset %d", ErrBadFrame, off)
		}
		pos[i] = ssr.WALPosition{
			Generation: binary.LittleEndian.Uint64(p[10+16*i : 10+16*i+8]),
			Offset:     int64(off),
		}
	}
	return planGen, pos, nil
}
