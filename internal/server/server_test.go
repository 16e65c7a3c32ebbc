package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	ssr "repro"
)

func testServer(t *testing.T) (*httptest.Server, *ssr.Index) {
	t.Helper()
	ix := testIndex(t)
	srv := httptest.NewServer(New(ix))
	t.Cleanup(srv.Close)
	return srv, ix
}

func testIndex(t *testing.T) *ssr.Index {
	t.Helper()
	c := ssr.NewCollection()
	c.Add("dune", "foundation", "hyperion", "neuromancer") // 0
	c.Add("dune", "foundation", "hyperion", "neuromancer") // 1 duplicate
	c.Add("dune", "foundation", "ubik")                    // 2
	for i := 0; i < 60; i++ {
		c.Add(fmt.Sprintf("page-%d", i), fmt.Sprintf("page-%d", i+1))
	}
	ix, err := ssr.Build(c, ssr.Options{Budget: 24, MinHashes: 64, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return v
}

// TestHealthz keeps the name of the endpoint it used to read: the live
// set count a client took from /healthz now comes from /stats.
func TestHealthz(t *testing.T) {
	srv, _ := testServer(t)
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if st := decode[statsResponse](t, resp); st.Sets != 63 {
		t.Errorf("sets = %d", st.Sets)
	}
}

func TestQueryEndpoint(t *testing.T) {
	srv, _ := testServer(t)
	resp := postJSON(t, srv.URL+"/query", map[string]any{
		"elements": []string{"dune", "foundation", "hyperion", "neuromancer"},
		"lo":       0.9, "hi": 1.0,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	body := decode[queryResponse](t, resp)
	if len(body.Matches) != 2 {
		t.Fatalf("matches = %+v", body.Matches)
	}
	for _, m := range body.Matches {
		if m.Similarity != 1 {
			t.Errorf("similarity %g, want 1", m.Similarity)
		}
	}
	if body.Stats.Results != 2 {
		t.Errorf("stats = %+v", body.Stats)
	}
}

func TestQuerySIDEndpoint(t *testing.T) {
	srv, _ := testServer(t)
	resp := postJSON(t, srv.URL+"/query/sid", map[string]any{"sid": 0, "lo": 0.9, "hi": 1.0})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	body := decode[queryResponse](t, resp)
	if len(body.Matches) < 2 {
		t.Errorf("matches = %+v", body.Matches)
	}
	// Bad sid → 400.
	resp = postJSON(t, srv.URL+"/query/sid", map[string]any{"sid": 99999, "lo": 0, "hi": 1})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad sid status %d", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestTopKEndpoint(t *testing.T) {
	srv, _ := testServer(t)
	resp := postJSON(t, srv.URL+"/topk", map[string]any{
		"elements": []string{"dune", "foundation", "hyperion", "neuromancer"},
		"k":        2,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	body := decode[queryResponse](t, resp)
	if len(body.Matches) != 2 {
		t.Fatalf("matches = %+v", body.Matches)
	}
	if body.Matches[0].Similarity != 1 {
		t.Errorf("best match %+v", body.Matches[0])
	}
}

func TestAddAndDeleteEndpoints(t *testing.T) {
	srv, _ := testServer(t)
	resp := postJSON(t, srv.URL+"/sets", map[string]any{
		"elements": []string{"dune", "foundation", "hyperion", "neuromancer"},
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("add status %d", resp.StatusCode)
	}
	added := decode[map[string]int](t, resp)
	sid := added["sid"]
	if sid != 63 {
		t.Errorf("sid = %d, want 63", sid)
	}
	// The new duplicate is retrievable.
	resp = postJSON(t, srv.URL+"/query", map[string]any{
		"elements": []string{"dune", "foundation", "hyperion", "neuromancer"},
		"lo":       0.9, "hi": 1.0,
	})
	body := decode[queryResponse](t, resp)
	if len(body.Matches) != 3 {
		t.Fatalf("after add: %+v", body.Matches)
	}
	// Delete it again.
	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/sets/%d", srv.URL, sid), nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delete status %d", dresp.StatusCode)
	}
	dresp.Body.Close()
	resp = postJSON(t, srv.URL+"/query", map[string]any{
		"elements": []string{"dune", "foundation", "hyperion", "neuromancer"},
		"lo":       0.9, "hi": 1.0,
	})
	body = decode[queryResponse](t, resp)
	if len(body.Matches) != 2 {
		t.Errorf("after delete: %+v", body.Matches)
	}
	// Double delete → 404.
	req, _ = http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/sets/%d", srv.URL, sid), nil)
	dresp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if dresp.StatusCode != http.StatusNotFound {
		t.Errorf("double delete status %d", dresp.StatusCode)
	}
	dresp.Body.Close()
	// A sid past the uint32 sid space → 404, and no other set (1<<32
	// truncates to sid 0) is deleted in its place.
	sets := func() int {
		t.Helper()
		resp, err := http.Get(srv.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		return decode[statsResponse](t, resp).Sets
	}
	before := sets()
	req, _ = http.NewRequest(http.MethodDelete, srv.URL+"/sets/4294967296", nil)
	dresp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if dresp.StatusCode != http.StatusNotFound {
		t.Errorf("DELETE /sets/4294967296 status %d, want 404", dresp.StatusCode)
	}
	dresp.Body.Close()
	if after := sets(); after != before {
		t.Errorf("DELETE /sets/4294967296 changed the set count %d -> %d", before, after)
	}
}

func TestPlanEndpoint(t *testing.T) {
	srv, _ := testServer(t)
	resp, err := http.Get(srv.URL + "/plan")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	plan := decode[ssr.PlanSummary](t, resp)
	if len(plan.FilterIndexes) == 0 {
		t.Error("no filter indexes in plan")
	}
}

func TestValidationErrors(t *testing.T) {
	srv, _ := testServer(t)
	// Missing elements.
	resp := postJSON(t, srv.URL+"/query", map[string]any{"lo": 0.5, "hi": 1.0})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty query status %d", resp.StatusCode)
	}
	resp.Body.Close()
	// Inverted range.
	resp = postJSON(t, srv.URL+"/query", map[string]any{"elements": []string{"x"}, "lo": 0.9, "hi": 0.1})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("inverted range status %d", resp.StatusCode)
	}
	resp.Body.Close()
	// Unknown field.
	resp = postJSON(t, srv.URL+"/query", map[string]any{"elements": []string{"x"}, "lo": 0, "hi": 1, "bogus": 1})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field status %d", resp.StatusCode)
	}
	resp.Body.Close()
	// Wrong methods.
	resp, err := http.Get(srv.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /query status %d", resp.StatusCode)
	}
	resp.Body.Close()
	// Bad sid path.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/sets/not-a-number", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if dresp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad sid path status %d", dresp.StatusCode)
	}
	dresp.Body.Close()
	// k <= 0.
	resp = postJSON(t, srv.URL+"/topk", map[string]any{"elements": []string{"x"}, "k": 0})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("k=0 status %d", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestEmptyResultIsArray(t *testing.T) {
	srv, _ := testServer(t)
	resp := postJSON(t, srv.URL+"/query", map[string]any{
		"elements": []string{"zzz", "qqq"}, "lo": 0.9, "hi": 1.0,
	})
	defer resp.Body.Close()
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	if string(raw["matches"]) != "[]" {
		t.Errorf("matches = %s, want []", raw["matches"])
	}
}

func TestMethodMatrix(t *testing.T) {
	srv, _ := testServer(t)
	cases := []struct {
		method, path string
	}{
		{http.MethodPost, "/livez"},
		{http.MethodPost, "/plan"},
		{http.MethodGet, "/topk"},
		{http.MethodGet, "/sets"},
		{http.MethodGet, "/query/sid"},
		{http.MethodPut, "/sets/1"},
	}
	for _, tc := range cases {
		req, _ := http.NewRequest(tc.method, srv.URL+tc.path, bytes.NewReader([]byte("{}")))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status %d, want 405", tc.method, tc.path, resp.StatusCode)
		}
		resp.Body.Close()
	}
}

func TestAddValidation(t *testing.T) {
	srv, _ := testServer(t)
	resp := postJSON(t, srv.URL+"/sets", map[string]any{"elements": []string{}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty add status %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp, err := http.Post(srv.URL+"/sets", "application/json", bytes.NewReader([]byte("{broken")))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("broken JSON status %d", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestStatsEndpoint(t *testing.T) {
	srv, ix := testServer(t)

	// Two queries accumulate into the counters.
	for i := 0; i < 2; i++ {
		resp := postJSON(t, srv.URL+"/query", map[string]any{"elements": []string{"dune", "foundation"}, "lo": 0.1, "hi": 1.0})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query status %d", resp.StatusCode)
		}
		resp.Body.Close()
	}

	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	st := decode[statsResponse](t, resp)
	if st.Sets != ix.Len() {
		t.Fatalf("stats report %d sets, index holds %d", st.Sets, ix.Len())
	}
	if st.Shards != 1 || len(st.ShardSets) != 1 || st.ShardSets[0] != ix.Len() {
		t.Fatalf("shard breakdown %d/%v, want 1 shard holding %d", st.Shards, st.ShardSets, ix.Len())
	}
	if st.Queries.Count != 2 {
		t.Fatalf("query counter %d, want 2", st.Queries.Count)
	}
	if st.Queries.Results < 2 {
		t.Fatalf("results counter %d, want at least 2 (the duplicate pair matches twice)", st.Queries.Results)
	}
	if st.Tuner.Enabled || st.Tuner.PlanGeneration != 0 || st.Tuner.Retunes != 0 {
		t.Fatalf("tuner view %+v, want disabled at generation 0", st.Tuner)
	}

	// A retune must surface in both the tuner view and per-query stats.
	if _, err := ix.Retune(); err != nil {
		t.Fatalf("retune: %v", err)
	}
	resp, err = http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	st = decode[statsResponse](t, resp)
	if st.Tuner.PlanGeneration != 1 || st.Tuner.Retunes != 1 || st.Tuner.LastRetune == "" {
		t.Fatalf("tuner view %+v after retune, want generation 1 with one recorded retune", st.Tuner)
	}
	qresp := postJSON(t, srv.URL+"/query", map[string]any{"elements": []string{"dune", "foundation"}, "lo": 0.1, "hi": 1.0})
	qr := decode[queryResponse](t, qresp)
	if qr.Stats.PlanGeneration != 1 {
		t.Fatalf("query stats report generation %d, want 1", qr.Stats.PlanGeneration)
	}

	if got := postJSON(t, srv.URL+"/stats", map[string]any{}); got.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /stats status %d, want 405", got.StatusCode)
	} else {
		got.Body.Close()
	}
}

// hungUpWriter is a ResponseWriter whose client has gone away: the
// status goes out, the body write fails.
type hungUpWriter struct{ h http.Header }

func (w *hungUpWriter) Header() http.Header       { return w.h }
func (w *hungUpWriter) WriteHeader(int)           {}
func (w *hungUpWriter) Write([]byte) (int, error) { return 0, errors.New("client hung up") }

// TestWriteJSONLogsFailedWrite checks that a body write that fails after
// the status is sent leaves a log line: it is the only trace the failure
// can leave.
func TestWriteJSONLogsFailedWrite(t *testing.T) {
	var buf bytes.Buffer
	prev := log.Writer()
	log.SetOutput(&buf)
	t.Cleanup(func() { log.SetOutput(prev) })

	writeJSON(&hungUpWriter{h: http.Header{}}, http.StatusOK, statsResponse{})
	if got := buf.String(); !strings.Contains(got, "server: writing") || !strings.Contains(got, "client hung up") {
		t.Fatalf("failed write not logged; log output %q", got)
	}
}

// TestStatsBesideQueries runs /query and /stats concurrently through one
// handler: the query counters are written by every query and read by
// every stats request, so -race sees any counter left unsynchronized, and
// the final count shows any lost update.
func TestStatsBesideQueries(t *testing.T) {
	h := New(testIndex(t))
	const perWorker = 50
	serve := func(method, path, body string) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec.Code
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if code := serve(http.MethodPost, "/query", `{"elements":["dune","foundation"],"lo":0.1,"hi":1.0}`); code != http.StatusOK {
					t.Errorf("query status %d", code)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if code := serve(http.MethodGet, "/stats", ""); code != http.StatusOK {
					t.Errorf("stats status %d", code)
					return
				}
			}
		}()
	}
	wg.Wait()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var st statsResponse
	if err := json.NewDecoder(rec.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Queries.Count != 2*perWorker {
		t.Fatalf("query counter %d, want %d", st.Queries.Count, 2*perWorker)
	}
}
