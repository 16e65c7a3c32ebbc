package replica

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	ssr "repro"
	"repro/internal/engine"
)

// TestWireRoundTrip drives every frame kind and the token blob through
// encode → decode and expects identity.
func TestWireRoundTrip(t *testing.T) {
	wm := ssr.ReplicationWatermark{
		SettledSID:     41,
		PlanGeneration: 3,
		Ends: []ssr.WALPosition{
			{Generation: 2, Offset: 1024},
			{Generation: 5, Offset: 17},
		},
	}
	chunk := RecordsChunk{Generation: 7, Start: 4096, Frames: []byte("raw-wal-frame-bytes")}
	rot := Rotate{NextGeneration: 8, PlanGeneration: 2}
	serr := StreamError{Code: ErrCodeCompacted, Message: "gone"}

	var stream []byte
	stream = append(stream, WireMagic...)
	stream = AppendFrame(stream, KindRecords, 1, EncodeRecords(chunk))
	stream = AppendFrame(stream, KindRotate, 2, EncodeRotate(rot))
	stream = AppendFrame(stream, KindWatermark, 0, EncodeWatermark(wm))
	stream = AppendFrame(stream, KindError, 0, EncodeStreamError(serr))

	fr := NewFrameReader(bytes.NewReader(stream))
	f, err := fr.Next()
	if err != nil || f.Kind != KindRecords || f.Shard != 1 {
		t.Fatalf("frame 1: %+v, %v", f, err)
	}
	gotChunk, err := ParseRecords(f.Payload)
	if err != nil || gotChunk.Generation != chunk.Generation || gotChunk.Start != chunk.Start || !bytes.Equal(gotChunk.Frames, chunk.Frames) {
		t.Fatalf("records round trip: %+v, %v", gotChunk, err)
	}
	f, err = fr.Next()
	if err != nil || f.Kind != KindRotate || f.Shard != 2 {
		t.Fatalf("frame 2: %+v, %v", f, err)
	}
	if gotRot, err := ParseRotate(f.Payload); err != nil || gotRot != rot {
		t.Fatalf("rotate round trip: %+v, %v", gotRot, err)
	}
	f, err = fr.Next()
	if err != nil || f.Kind != KindWatermark {
		t.Fatalf("frame 3: %+v, %v", f, err)
	}
	gotWM, err := ParseWatermark(f.Payload)
	if err != nil || gotWM.SettledSID != wm.SettledSID || gotWM.PlanGeneration != wm.PlanGeneration || len(gotWM.Ends) != 2 || gotWM.Ends[0] != wm.Ends[0] || gotWM.Ends[1] != wm.Ends[1] {
		t.Fatalf("watermark round trip: %+v, %v", gotWM, err)
	}
	f, err = fr.Next()
	if err != nil || f.Kind != KindError {
		t.Fatalf("frame 4: %+v, %v", f, err)
	}
	if gotErr, err := ParseStreamError(f.Payload); err != nil || gotErr != serr {
		t.Fatalf("error round trip: %+v, %v", gotErr, err)
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("want clean EOF, got %v", err)
	}

	tok := EncodeTokens(9, wm.Ends)
	gen, pos, err := DecodeTokens(tok)
	if err != nil || gen != 9 || len(pos) != 2 || pos[0] != wm.Ends[0] || pos[1] != wm.Ends[1] {
		t.Fatalf("token round trip: gen %d pos %+v err %v", gen, pos, err)
	}
}

// TestWireCorruption flips each byte of a valid stream and expects the
// reader to fail closed (ErrBadFrame or EOF), never to return a frame
// whose payload differs from the original.
func TestWireCorruption(t *testing.T) {
	var stream []byte
	stream = append(stream, WireMagic...)
	payload := EncodeRotate(Rotate{NextGeneration: 3, PlanGeneration: 1})
	stream = AppendFrame(stream, KindRotate, 0, payload)
	for i := range stream {
		mut := append([]byte(nil), stream...)
		mut[i] ^= 0x40
		fr := NewFrameReader(bytes.NewReader(mut))
		f, err := fr.Next()
		if err != nil {
			continue // fail-closed: exactly what corruption should do
		}
		// A surviving frame must be byte-identical (the flip landed in a
		// part the header redundantly tolerates — there is none today, so
		// any survivor must match exactly).
		if f.Kind != KindRotate || !bytes.Equal(f.Payload, payload) {
			t.Fatalf("flip at %d decoded altered frame %+v", i, f)
		}
	}
}

// TestWireTruncation cuts a valid stream at every length and expects a
// clean EOF or ErrBadFrame, never a hang or panic.
func TestWireTruncation(t *testing.T) {
	var stream []byte
	stream = append(stream, WireMagic...)
	stream = AppendFrame(stream, KindWatermark, 0, EncodeWatermark(ssr.ReplicationWatermark{
		SettledSID: 5, Ends: []ssr.WALPosition{{Generation: 1, Offset: 64}},
	}))
	for cut := 0; cut < len(stream); cut++ {
		fr := NewFrameReader(bytes.NewReader(stream[:cut]))
		if _, err := fr.Next(); err == nil {
			t.Fatalf("cut at %d decoded a full frame from a truncated stream", cut)
		}
	}
}

// TestShardBoundMatchesEngine holds the replication layer to the engine's
// shard bound: a manifest handshake naming engine.MaxShards+1 shards is
// refused before any checkpoint is fetched, and so are watermark frames
// and token blobs carrying that many positions.
func TestShardBoundMatchesEngine(t *testing.T) {
	n := engine.MaxShards + 1
	man := ManifestResponse{WireVersion: WireVersion, Shards: n}
	for si := 0; si < n; si++ {
		man.Checkpoints = append(man.Checkpoints, CheckpointRef{Shard: si, Generation: 1})
	}
	var fetches atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/replica/manifest" {
			fetches.Add(1)
			http.NotFound(w, r)
			return
		}
		if err := json.NewEncoder(w).Encode(man); err != nil {
			t.Error(err)
		}
	}))
	defer srv.Close()
	f := &Follower{opt: FollowerOptions{Primary: srv.URL, Client: srv.Client()}}
	if err := f.bootstrap(context.Background(), t.TempDir()); err == nil || fetches.Load() != 0 {
		t.Errorf("handshake naming %d shards: err %v after %d checkpoint fetches; want refusal before any", n, err, fetches.Load())
	}

	ends := make([]ssr.WALPosition, n)
	if _, err := ParseWatermark(EncodeWatermark(ssr.ReplicationWatermark{Ends: ends})); err == nil {
		t.Errorf("watermark with %d ends accepted", n)
	}
	if _, _, err := DecodeTokens(EncodeTokens(1, ends)); err == nil {
		t.Errorf("token blob with %d positions accepted", n)
	}
	if _, err := ParseWatermark(EncodeWatermark(ssr.ReplicationWatermark{Ends: ends[:n-1]})); err != nil {
		t.Errorf("watermark with %d ends: %v", n-1, err)
	}
	if _, _, err := DecodeTokens(EncodeTokens(1, ends[:n-1])); err != nil {
		t.Errorf("token blob with %d positions: %v", n-1, err)
	}
}
