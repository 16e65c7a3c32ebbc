// Package server exposes a built similar-set index over HTTP/JSON — the
// "front end to database engines" integration the paper's introduction
// motivates (recommendation and advertising services calling similarity
// retrieval as a web primitive).
//
// Endpoints (all JSON):
//
//	GET  /livez                → liveness: the process answers
//	GET  /readyz               → readiness: role, plan generation, and —
//	                             on followers — replication lag; 503
//	                             until the node should take traffic
//	GET  /plan                 → the optimizer's layout
//	GET  /stats                → per-shard set counts, accumulated query
//	                             counters, and adaptive-tuner state
//	POST /query                {"elements":[...],"lo":0.8,"hi":1.0}
//	POST /query/sid            {"sid":7,"lo":0.8,"hi":1.0}
//	POST /query/batch          {"queries":[{"elements":[...],"lo":0.8,"hi":1.0},...],
//	                            "screen":true,"screenMargin":0.1}
//	POST /topk                 {"elements":[...],"k":5}
//	POST /sets                 {"elements":[...]} → {"sid":N}
//	DELETE /sets/{sid}
//
// Element lists are strings (the public API's dictionary interns them).
// Mutating endpoints are serialized internally; queries run concurrently.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	ssr "repro"
)

// Server wraps an index as an http.Handler.
type Server struct {
	mux *http.ServeMux
	ix  *ssr.Index
	cfg Config
	// mu serializes mutations (Add/Remove); the index itself is safe for
	// concurrent queries.
	mu sync.Mutex
	// totals accumulates query accounting for GET /stats.
	totals statCounters
}

// Config shapes a node's serving role. The zero value is a plain
// standalone read-write node, exactly what New always built.
type Config struct {
	// Role labels the node in /readyz ("primary", "follower"; default
	// "standalone").
	Role string
	// ReadOnly rejects mutating endpoints with 403 — the follower stance
	// (the index itself also refuses, but a typed HTTP answer beats a
	// surfaced internal error).
	ReadOnly bool
	// Readiness decides GET /readyz: ready, plus detail merged into the
	// response (lag, caught-up, whatever the role knows). Nil means
	// always ready — liveness and readiness coincide, the standalone
	// stance.
	Readiness func() (bool, map[string]any)
	// Replication, when set, is mounted at /replica/ — the primary's
	// stream endpoints (internal/replica.Handler).
	Replication http.Handler
	// Index, when set, resolves the serving index per request. Follower
	// mode needs this: a resync swaps in a fresh mirror, and requests
	// must land on the live one.
	Index func() *ssr.Index
}

// statCounters accumulates query accounting across the server's
// lifetime; each query-like endpoint records its ssr.Stats here.
type statCounters struct {
	queries       atomic.Int64
	candidates    atomic.Int64
	results       atomic.Int64
	screened      atomic.Int64
	randReads     atomic.Int64
	seqReads      atomic.Int64
	shardsQueried atomic.Int64
	cacheHits     atomic.Int64
	cacheMisses   atomic.Int64
	// Planner plan choices, keyed by ssr.Stats.PlanChosen labels.
	planFIProbe    atomic.Int64
	planDirectScan atomic.Int64
	planScreenOnly atomic.Int64
	planMixed      atomic.Int64
	planCached     atomic.Int64
}

func (c *statCounters) record(st ssr.Stats) {
	c.queries.Add(1)
	c.candidates.Add(int64(st.Candidates))
	c.results.Add(int64(st.Results))
	c.screened.Add(int64(st.Screened))
	c.randReads.Add(st.RandomPageReads)
	c.seqReads.Add(st.SequentialPageReads)
	c.shardsQueried.Add(int64(st.ShardsQueried))
	c.cacheHits.Add(int64(st.CacheHits))
	c.cacheMisses.Add(int64(st.CacheMisses))
	switch st.PlanChosen {
	case "fi-probe":
		c.planFIProbe.Add(1)
	case "direct-scan":
		c.planDirectScan.Add(1)
	case "screen-only":
		c.planScreenOnly.Add(1)
	case "mixed":
		c.planMixed.Add(1)
	case "cached":
		c.planCached.Add(1)
	}
}

// New returns a handler serving the given index as a standalone
// read-write node.
func New(ix *ssr.Index) *Server {
	return NewWithConfig(ix, Config{})
}

// NewWithConfig returns a handler serving the given index under the
// given role configuration.
func NewWithConfig(ix *ssr.Index, cfg Config) *Server {
	if cfg.Role == "" {
		cfg.Role = "standalone"
	}
	s := &Server{mux: http.NewServeMux(), ix: ix, cfg: cfg}
	s.mux.HandleFunc("/livez", s.handleLive)
	s.mux.HandleFunc("/readyz", s.handleReady)
	if cfg.Replication != nil {
		s.mux.Handle("/replica/", cfg.Replication)
	}
	s.mux.HandleFunc("/plan", s.handlePlan)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/query", s.handleQuery)
	s.mux.HandleFunc("/query/sid", s.handleQuerySID)
	s.mux.HandleFunc("/query/batch", s.handleQueryBatch)
	s.mux.HandleFunc("/topk", s.handleTopK)
	s.mux.HandleFunc("/sets", s.handleSets)
	s.mux.HandleFunc("/sets/", s.handleSetByID)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// index resolves the serving index: the per-request resolver when the
// role swaps indexes (followers across resyncs), else the fixed one.
func (s *Server) index() *ssr.Index {
	if s.cfg.Index != nil {
		return s.cfg.Index()
	}
	return s.ix
}

// errorBody is the uniform error payload.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	// Marshal before touching the ResponseWriter: once WriteHeader runs the
	// status is on the wire and a failed body can only be logged, so encode
	// errors must be caught while a 500 is still possible.
	body, err := json.Marshal(v)
	if err != nil {
		log.Printf("server: encoding %T response: %v", v, err)
		http.Error(w, `{"error":"internal encoding failure"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if _, err := w.Write(append(body, '\n')); err != nil {
		// Headers are gone; the client likely hung up. Log for the trail.
		log.Printf("server: writing %T response: %v", v, err)
	}
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error()})
}

// decodeBody parses a JSON request body into dst with basic hardening.
func decodeBody(r *http.Request, dst any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 16<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

// handleLive is pure liveness: the process answers, full stop. Restart
// decisions key off this; traffic decisions key off /readyz.
func (s *Server) handleLive(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("GET only"))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
}

// handleReady is readiness: role, plan generation, and the role's own
// detail (a follower reports lag and stays 503 until caught up within
// its bound).
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("GET only"))
		return
	}
	ready, detail := true, map[string]any(nil)
	if s.cfg.Readiness != nil {
		ready, detail = s.cfg.Readiness()
	}
	body := map[string]any{
		"ready":          ready,
		"role":           s.cfg.Role,
		"planGeneration": s.index().TunerState().PlanGeneration,
	}
	for k, v := range detail {
		body[k] = v
	}
	status := http.StatusOK
	if !ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, body)
}

// denyReadOnly rejects a mutation on a read-only node; returns true when
// the request was handled.
func (s *Server) denyReadOnly(w http.ResponseWriter) bool {
	if !s.cfg.ReadOnly {
		return false
	}
	writeErr(w, http.StatusForbidden, fmt.Errorf("node is read-only (%s); write to the primary", s.cfg.Role))
	return true
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("GET only"))
		return
	}
	writeJSON(w, http.StatusOK, s.index().Plan())
}

// tunerView is the JSON shape of ssr.TunerState.
type tunerView struct {
	Enabled        bool    `json:"enabled"`
	AutoTuning     bool    `json:"autoTuning"`
	PlanGeneration uint64  `json:"planGeneration"`
	Mutations      uint64  `json:"mutations"`
	SampledPairs   int     `json:"sampledPairs"`
	LastDrift      float64 `json:"lastDrift"`
	LastCheck      string  `json:"lastCheck,omitempty"`
	LastRetune     string  `json:"lastRetune,omitempty"`
	Retunes        uint64  `json:"retunes"`
}

// statsResponse is the GET /stats payload.
type statsResponse struct {
	Sets      int   `json:"sets"`
	Shards    int   `json:"shards"`
	ShardSets []int `json:"shardSets"`
	Queries   struct {
		Count               int64 `json:"count"`
		Candidates          int64 `json:"candidates"`
		Results             int64 `json:"results"`
		Screened            int64 `json:"screened"`
		RandomPageReads     int64 `json:"randomPageReads"`
		SequentialPageReads int64 `json:"sequentialPageReads"`
		ShardsQueried       int64 `json:"shardsQueried"`
		CacheHits           int64 `json:"cacheHits"`
		CacheMisses         int64 `json:"cacheMisses"`
	} `json:"queries"`
	// Plans counts planner plan choices across all recorded queries (all
	// zero when the index was built without the planner).
	Plans struct {
		FIProbe    int64 `json:"fiProbe"`
		DirectScan int64 `json:"directScan"`
		ScreenOnly int64 `json:"screenOnly"`
		Mixed      int64 `json:"mixed"`
		Cached     int64 `json:"cached"`
	} `json:"plans"`
	Tuner tunerView `json:"tuner"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("GET only"))
		return
	}
	eng := s.index().Internal()
	resp := statsResponse{
		Sets:      eng.Len(),
		Shards:    eng.NumShards(),
		ShardSets: eng.ShardLens(),
	}
	resp.Queries.Count = s.totals.queries.Load()
	resp.Queries.Candidates = s.totals.candidates.Load()
	resp.Queries.Results = s.totals.results.Load()
	resp.Queries.Screened = s.totals.screened.Load()
	resp.Queries.RandomPageReads = s.totals.randReads.Load()
	resp.Queries.SequentialPageReads = s.totals.seqReads.Load()
	resp.Queries.ShardsQueried = s.totals.shardsQueried.Load()
	resp.Queries.CacheHits = s.totals.cacheHits.Load()
	resp.Queries.CacheMisses = s.totals.cacheMisses.Load()
	resp.Plans.FIProbe = s.totals.planFIProbe.Load()
	resp.Plans.DirectScan = s.totals.planDirectScan.Load()
	resp.Plans.ScreenOnly = s.totals.planScreenOnly.Load()
	resp.Plans.Mixed = s.totals.planMixed.Load()
	resp.Plans.Cached = s.totals.planCached.Load()
	ts := s.index().TunerState()
	resp.Tuner = tunerView{
		Enabled:        ts.Enabled,
		AutoTuning:     ts.AutoTuning,
		PlanGeneration: ts.PlanGeneration,
		Mutations:      ts.Mutations,
		SampledPairs:   ts.SampledPairs,
		LastDrift:      ts.LastDrift,
		Retunes:        ts.Retunes,
	}
	if !ts.LastCheck.IsZero() {
		resp.Tuner.LastCheck = ts.LastCheck.UTC().Format(time.RFC3339Nano)
	}
	if !ts.LastRetune.IsZero() {
		resp.Tuner.LastRetune = ts.LastRetune.UTC().Format(time.RFC3339Nano)
	}
	writeJSON(w, http.StatusOK, resp)
}

// queryRequest is the /query payload.
type queryRequest struct {
	Elements []string `json:"elements"`
	Lo       float64  `json:"lo"`
	Hi       float64  `json:"hi"`
}

// sidQueryRequest is the /query/sid payload.
type sidQueryRequest struct {
	SID int     `json:"sid"`
	Lo  float64 `json:"lo"`
	Hi  float64 `json:"hi"`
}

// topKRequest is the /topk payload.
type topKRequest struct {
	Elements []string `json:"elements"`
	K        int      `json:"k"`
}

// queryResponse is the payload of query-like endpoints.
type queryResponse struct {
	Matches []ssr.Match   `json:"matches"`
	Stats   queryStatView `json:"stats"`
}

// queryStatView is the JSON shape of ssr.Stats.
type queryStatView struct {
	Candidates        int     `json:"candidates"`
	Results           int     `json:"results"`
	Screened          int     `json:"screened,omitempty"`
	ScreenedFraction  float64 `json:"screenedFraction,omitempty"`
	RandomPageReads   int64   `json:"randomPageReads"`
	SequentialReads   int64   `json:"sequentialPageReads"`
	SimulatedIOMicros int64   `json:"simulatedIOMicros"`
	CPUMicros         int64   `json:"cpuMicros"`
	PlanGeneration    uint64  `json:"planGeneration"`
	ShardsQueried     int     `json:"shardsQueried"`
	Plan              string  `json:"plan,omitempty"`
	CacheHits         int     `json:"cacheHits,omitempty"`
	CacheMisses       int     `json:"cacheMisses,omitempty"`
	Elapsed           string  `json:"elapsed"`
}

func statView(st ssr.Stats, elapsed time.Duration) queryStatView {
	return queryStatView{
		Candidates:        st.Candidates,
		Results:           st.Results,
		Screened:          st.Screened,
		ScreenedFraction:  st.ScreenedFraction,
		RandomPageReads:   st.RandomPageReads,
		SequentialReads:   st.SequentialPageReads,
		SimulatedIOMicros: st.SimulatedIOTime.Microseconds(),
		CPUMicros:         st.CPUTime.Microseconds(),
		PlanGeneration:    st.PlanGeneration,
		ShardsQueried:     st.ShardsQueried,
		Plan:              st.PlanChosen,
		CacheHits:         st.CacheHits,
		CacheMisses:       st.CacheMisses,
		Elapsed:           elapsed.String(),
	}
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("POST only"))
		return
	}
	var req queryRequest
	if err := decodeBody(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Elements) == 0 {
		writeErr(w, http.StatusBadRequest, errors.New("elements required"))
		return
	}
	start := time.Now()
	matches, stats, err := s.index().Query(req.Elements, req.Lo, req.Hi)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	s.totals.record(stats)
	writeJSON(w, http.StatusOK, queryResponse{Matches: orEmpty(matches), Stats: statView(stats, time.Since(start))})
}

func (s *Server) handleQuerySID(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("POST only"))
		return
	}
	var req sidQueryRequest
	if err := decodeBody(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	start := time.Now()
	matches, stats, err := s.index().QuerySID(req.SID, req.Lo, req.Hi)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	s.totals.record(stats)
	writeJSON(w, http.StatusOK, queryResponse{Matches: orEmpty(matches), Stats: statView(stats, time.Since(start))})
}

// maxBatchQueries caps one /query/batch request; larger workloads should
// paginate rather than hold one handler goroutine for minutes.
const maxBatchQueries = 1024

// batchRequest is the /query/batch payload. Screen, screenMargin, and
// workers apply to every entry (see ssr.QueryOptions).
type batchRequest struct {
	Queries      []queryRequest `json:"queries"`
	Screen       bool           `json:"screen"`
	ScreenMargin float64        `json:"screenMargin"`
	Workers      int            `json:"workers"`
	// AllowApproximate lets the planner (if the index enables it) answer
	// wide ranges from signature estimates (see ssr.QueryOptions).
	AllowApproximate bool `json:"allowApproximate"`
}

// batchEntryResponse is one positional result of /query/batch.
type batchEntryResponse struct {
	Matches []ssr.Match   `json:"matches"`
	Stats   queryStatView `json:"stats"`
	Error   string        `json:"error,omitempty"`
}

// batchResponse is the /query/batch payload: results[i] answers queries[i].
type batchResponse struct {
	Results []batchEntryResponse `json:"results"`
	Elapsed string               `json:"elapsed"`
}

func (s *Server) handleQueryBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("POST only"))
		return
	}
	var req batchRequest
	if err := decodeBody(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Queries) == 0 {
		writeErr(w, http.StatusBadRequest, errors.New("queries required"))
		return
	}
	if len(req.Queries) > maxBatchQueries {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("batch of %d exceeds limit %d", len(req.Queries), maxBatchQueries))
		return
	}
	if req.ScreenMargin < 0 { // JSON carries no NaN or infinity
		writeErr(w, http.StatusBadRequest, fmt.Errorf("screenMargin %g is negative", req.ScreenMargin))
		return
	}
	batch := make([]ssr.BatchQuery, len(req.Queries))
	for i, q := range req.Queries {
		if len(q.Elements) == 0 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("query %d: elements required", i))
			return
		}
		batch[i] = ssr.BatchQuery{Elements: q.Elements, Lo: q.Lo, Hi: q.Hi}
	}
	start := time.Now()
	results := s.index().QueryBatch(batch, ssr.QueryOptions{
		Screen:           req.Screen,
		ScreenMargin:     req.ScreenMargin,
		Workers:          req.Workers,
		AllowApproximate: req.AllowApproximate,
	})
	elapsed := time.Since(start)
	resp := batchResponse{Results: make([]batchEntryResponse, len(results)), Elapsed: elapsed.String()}
	for i, res := range results {
		entry := batchEntryResponse{Matches: orEmpty(res.Matches), Stats: statView(res.Stats, elapsed)}
		if res.Err != nil {
			entry.Error = res.Err.Error()
		} else {
			s.totals.record(res.Stats)
		}
		resp.Results[i] = entry
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("POST only"))
		return
	}
	var req topKRequest
	if err := decodeBody(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Elements) == 0 {
		writeErr(w, http.StatusBadRequest, errors.New("elements required"))
		return
	}
	start := time.Now()
	matches, stats, err := s.index().TopK(req.Elements, req.K)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	s.totals.record(stats)
	writeJSON(w, http.StatusOK, queryResponse{Matches: orEmpty(matches), Stats: statView(stats, time.Since(start))})
}

// addRequest is the POST /sets payload.
type addRequest struct {
	Elements []string `json:"elements"`
}

func (s *Server) handleSets(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("POST only"))
		return
	}
	if s.denyReadOnly(w) {
		return
	}
	var req addRequest
	if err := decodeBody(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Elements) == 0 {
		writeErr(w, http.StatusBadRequest, errors.New("elements required"))
		return
	}
	s.mu.Lock()
	sid, err := s.index().Add(req.Elements...)
	s.mu.Unlock()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]int{"sid": sid})
}

func (s *Server) handleSetByID(w http.ResponseWriter, r *http.Request) {
	raw := strings.TrimPrefix(r.URL.Path, "/sets/")
	sid, err := strconv.Atoi(raw)
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad sid %q", raw))
		return
	}
	switch r.Method {
	case http.MethodDelete:
		if s.denyReadOnly(w) {
			return
		}
		s.mu.Lock()
		err := s.index().Remove(sid)
		s.mu.Unlock()
		if err != nil {
			writeErr(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "deleted"})
	default:
		writeErr(w, http.StatusMethodNotAllowed, errors.New("DELETE only"))
	}
}

// orEmpty keeps JSON arrays non-null for empty results.
func orEmpty(m []ssr.Match) []ssr.Match {
	if m == nil {
		return []ssr.Match{}
	}
	return m
}
