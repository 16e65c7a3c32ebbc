package replica

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"time"

	ssr "repro"
)

// WireVersion is negotiated at bootstrap: a follower refuses to speak to
// a primary whose wire version it does not know. Version 3 ships every
// layout as a MANIFEST (version 3) plus one lane checkpoint per shard,
// each one snapshot image; version 2 shipped the same layout with lanes
// in the nested snapshot envelope of older releases.
const WireVersion = 3

// HandlerOptions tunes the primary-side stream server. The zero value is
// usable.
type HandlerOptions struct {
	// ChunkBytes bounds one KindRecords frame (default 256KiB).
	ChunkBytes int
	// Heartbeat is the idle re-emission period for watermark frames
	// (default 1s). Watermarks double as heartbeats AND as the gate
	// openers for records the previous watermark did not yet cover, so
	// this also bounds follower apply latency for in-flight writes.
	Heartbeat time.Duration
	// WriteTimeout is the per-frame write deadline on the stream
	// (default 30s); a stalled follower is cut rather than held.
	WriteTimeout time.Duration
}

func (o HandlerOptions) withDefaults() HandlerOptions {
	if o.ChunkBytes <= 0 {
		o.ChunkBytes = 256 << 10
	}
	if o.Heartbeat <= 0 {
		o.Heartbeat = time.Second
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 30 * time.Second
	}
	return o
}

// Handler serves the primary's /replica/* endpoints:
//
//	GET  /replica/manifest    bootstrap handshake: wire version, shard
//	                          count, plan generation, raw MANIFEST, and
//	                          the newest verified checkpoint generations
//	POST /replica/stream      resume-token blob in, frame stream out
//	GET  /replica/checkpoint  ?shard=N&gen=G → the sealed artifact
//	GET  /replica/status      positions, watermark, plan generation
type Handler struct {
	src *ssr.ReplicationSource
	opt HandlerOptions
	mux *http.ServeMux
}

// NewHandler builds the replication handler for a durable primary index.
func NewHandler(ix *ssr.Index, opt HandlerOptions) (*Handler, error) {
	src, err := ix.ReplicationSource()
	if err != nil {
		return nil, err
	}
	h := &Handler{src: src, opt: opt.withDefaults(), mux: http.NewServeMux()}
	h.mux.HandleFunc("/replica/manifest", h.handleManifest)
	h.mux.HandleFunc("/replica/checkpoint", h.handleCheckpoint)
	h.mux.HandleFunc("/replica/stream", h.handleStream)
	h.mux.HandleFunc("/replica/status", h.handleStatus)
	return h, nil
}

func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mux.ServeHTTP(w, r)
}

func httpJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		log.Printf("replica: encoding %T response: %v", v, err)
		http.Error(w, `{"error":"internal encoding failure"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if _, err := w.Write(append(body, '\n')); err != nil {
		log.Printf("replica: writing %T response: %v", v, err)
	}
}

// CheckpointRef names one shippable checkpoint.
type CheckpointRef struct {
	Shard      int    `json:"shard"`
	Generation uint64 `json:"generation"`
}

// ManifestResponse is the GET /replica/manifest payload — everything a
// follower needs to plan a bootstrap in one round trip. Manifest is the
// raw MANIFEST bytes (base64 in JSON).
type ManifestResponse struct {
	WireVersion    int             `json:"wire_version"`
	Shards         int             `json:"shards"`
	PlanGeneration uint64          `json:"plan_generation"`
	Manifest       []byte          `json:"manifest"`
	Checkpoints    []CheckpointRef `json:"checkpoints"`
}

func (h *Handler) handleManifest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": "GET only"})
		return
	}
	resp := ManifestResponse{
		WireVersion:    WireVersion,
		Shards:         h.src.Shards(),
		PlanGeneration: h.src.PlanGeneration(),
	}
	raw, err := h.src.RawManifest()
	if err != nil {
		httpJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
		return
	}
	resp.Manifest = raw
	for si := 0; si < resp.Shards; si++ {
		gen, err := h.src.NewestCheckpoint(si)
		if err != nil {
			httpJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
			return
		}
		resp.Checkpoints = append(resp.Checkpoints, CheckpointRef{Shard: si, Generation: gen})
	}
	httpJSON(w, http.StatusOK, resp)
}

func (h *Handler) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": "GET only"})
		return
	}
	si, err := strconv.Atoi(r.URL.Query().Get("shard"))
	if err != nil {
		httpJSON(w, http.StatusBadRequest, map[string]string{"error": "bad shard"})
		return
	}
	gen, err := strconv.ParseUint(r.URL.Query().Get("gen"), 10, 64)
	if err != nil {
		httpJSON(w, http.StatusBadRequest, map[string]string{"error": "bad gen"})
		return
	}
	rc, size, err := h.src.OpenCheckpoint(si, gen)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, ssr.ErrCompactedSegment) {
			status = http.StatusNotFound
		}
		httpJSON(w, status, map[string]string{"error": err.Error()})
		return
	}
	defer rc.Close() // read-only fd; a short copy already failed the response
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
	w.WriteHeader(http.StatusOK)
	if _, err := io.Copy(w, rc); err != nil {
		log.Printf("replica: shipping checkpoint shard=%d gen=%d: %v", si, gen, err)
	}
}

// statusResponse is the GET /replica/status payload.
type statusResponse struct {
	Role           string                   `json:"role"`
	Shards         int                      `json:"shards"`
	PlanGeneration uint64                   `json:"plan_generation"`
	Positions      []ssr.WALPosition        `json:"positions"`
	Watermark      ssr.ReplicationWatermark `json:"watermark"`
}

func (h *Handler) handleStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": "GET only"})
		return
	}
	resp := statusResponse{
		Role:           "primary",
		Shards:         h.src.Shards(),
		PlanGeneration: h.src.PlanGeneration(),
		Watermark:      h.src.Watermark(),
	}
	for si := 0; si < resp.Shards; si++ {
		p, err := h.src.Position(si)
		if err != nil {
			httpJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
			return
		}
		resp.Positions = append(resp.Positions, p)
	}
	httpJSON(w, http.StatusOK, resp)
}

// handleStream serves the tail: validate the resume tokens, then rounds
// of (pump every shard to the watermark's ends) → (emit the watermark) →
// (wait for changes or the heartbeat period). The pump-before-watermark
// order is the protocol's one load-bearing invariant: when a follower
// sees a watermark, every record it covers has already arrived, so
// gating its sid-ordered merge on the newest watermark is sound.
func (h *Handler) handleStream(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": "POST only"})
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		httpJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	planGen, pos, err := DecodeTokens(body)
	if err != nil {
		httpJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	if len(pos) != h.src.Shards() {
		httpJSON(w, http.StatusConflict, map[string]string{
			"error":  fmt.Sprintf("token names %d shards, primary has %d", len(pos), h.src.Shards()),
			"reason": "topology",
		})
		return
	}
	if got := h.src.PlanGeneration(); got != planGen {
		httpJSON(w, http.StatusConflict, map[string]string{
			"error":  fmt.Sprintf("follower plan generation %d, primary %d (re-bootstrap)", planGen, got),
			"reason": "plan-generation",
		})
		return
	}

	rc := http.NewResponseController(w)
	extend := func() bool {
		if err := rc.SetWriteDeadline(time.Now().Add(h.opt.WriteTimeout)); err != nil &&
			!errors.Is(err, http.ErrNotSupported) {
			return false
		}
		return true
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	extend()
	if _, err := io.WriteString(w, WireMagic); err != nil {
		return
	}
	send := func(kind byte, shard int, payload []byte) bool {
		if !extend() {
			return false
		}
		_, err := w.Write(AppendFrame(nil, kind, shard, payload))
		return err == nil
	}
	fail := func(code byte, msg string) {
		send(KindError, 0, EncodeStreamError(StreamError{Code: code, Message: msg}))
		rc.Flush() // the stream is ending either way
	}

	sub, cancel := h.src.Subscribe()
	defer cancel()
	ctx := r.Context()
	heartbeat := time.NewTicker(h.opt.Heartbeat)
	defer heartbeat.Stop()
	for {
		wm := h.src.Watermark()
		if wm.PlanGeneration != planGen {
			fail(ErrCodePlanChanged, fmt.Sprintf("plan generation moved to %d", wm.PlanGeneration))
			return
		}
		for si := range pos {
			for pos[si].Before(wm.Ends[si]) {
				data, next, sealed, err := h.src.ReadFrames(si, pos[si], h.opt.ChunkBytes)
				if err != nil {
					code := byte(ErrCodeInternal)
					if errors.Is(err, ssr.ErrCompactedSegment) {
						code = ErrCodeCompacted
					}
					fail(code, err.Error())
					return
				}
				if len(data) > 0 {
					if !send(KindRecords, si, EncodeRecords(RecordsChunk{
						Generation: pos[si].Generation, Start: pos[si].Offset, Frames: data,
					})) {
						return
					}
				}
				if sealed {
					if !send(KindRotate, si, EncodeRotate(Rotate{
						NextGeneration: next.Generation,
						PlanGeneration: h.src.PlanGeneration(),
					})) {
						return
					}
				}
				if next == pos[si] {
					// No data, no seal, yet short of the watermark's end:
					// only a concurrent truncation could do this; bail out
					// rather than spin.
					fail(ErrCodeInternal, fmt.Sprintf("shard %d stalled at %s", si, pos[si]))
					return
				}
				pos[si] = next
			}
		}
		if !send(KindWatermark, 0, EncodeWatermark(wm)) {
			return
		}
		if err := rc.Flush(); err != nil {
			return
		}
		select {
		case <-ctx.Done():
			return
		case <-sub:
		case <-heartbeat.C:
		}
	}
}
