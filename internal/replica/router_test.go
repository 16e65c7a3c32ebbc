package replica

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/server"
)

// startCluster stands up a primary node, one follower node, and a
// router over both, all serving the full HTTP surface.
func startCluster(t *testing.T) (primary *httptest.Server, follower *httptest.Server, router *Router) {
	t.Helper()
	ix, repl := startPrimary(t, 2, 40)
	repl.Close() // the bare replication server; the full node below supersedes it
	h, err := NewHandler(ix, fastStream)
	if err != nil {
		t.Fatalf("replication handler: %v", err)
	}
	primary = httptest.NewServer(server.NewWithConfig(ix, server.Config{
		Role: "primary", Replication: h,
	}))
	t.Cleanup(primary.Close)

	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	f, err := StartFollower(ctx, fastFollowerOptions(t.TempDir(), primary.URL))
	if err != nil {
		t.Fatalf("starting follower: %v", err)
	}
	t.Cleanup(func() { f.Close() })
	waitMirrored(t, f, ix)
	follower = httptest.NewServer(server.NewWithConfig(nil, server.Config{
		Role: "follower", ReadOnly: true, Index: f.Index,
		Readiness: func() (bool, map[string]any) {
			st := f.Status()
			return st.CaughtUp, map[string]any{"lagBytes": st.LagBytes}
		},
	}))
	t.Cleanup(follower.Close)

	router = NewRouter(RouterOptions{
		Primary:    primary.URL,
		Followers:  []string{follower.URL},
		HedgeDelay: 5 * time.Millisecond,
		ProbeEvery: 10 * time.Millisecond,
	})
	t.Cleanup(func() { closeWithin(t, "Router.probeLoop", router.Close) })
	return primary, follower, router
}

// closeWithin calls close and fails the test if it has not returned in
// 10 s, naming the background loop that ignored its stop signal — instead
// of hanging the package to the go test timeout.
func closeWithin(t *testing.T, loop string, close func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("Close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Errorf("Close did not return in 10 s: %s ignored its stop signal", loop)
	}
}

func postJSON(t *testing.T, h http.Handler, path, body string) (int, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader([]byte(body)))
	req.Header.Set("Content-Type", "application/json")
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	data, err := io.ReadAll(rr.Result().Body)
	if err != nil {
		t.Fatal(err)
	}
	return rr.Code, data
}

// matchesOf extracts the "matches" field — the deterministic part of a
// query answer (stats carry timings).
func matchesOf(t *testing.T, body []byte) json.RawMessage {
	t.Helper()
	var resp struct {
		Matches json.RawMessage `json:"matches"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decoding %s: %v", body, err)
	}
	return resp.Matches
}

func TestRouterReadsAreByteIdentical(t *testing.T) {
	primarySrv, followerSrv, rt := startCluster(t)

	// Wait until the router sees both backends ready.
	waitFor(t, "router readiness", func() bool {
		req := httptest.NewRequest(http.MethodGet, "/router/status", nil)
		rr := httptest.NewRecorder()
		rt.ServeHTTP(rr, req)
		var st struct {
			Backends []struct {
				Ready bool `json:"ready"`
			} `json:"backends"`
		}
		if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil || len(st.Backends) != 2 {
			return false
		}
		return st.Backends[0].Ready && st.Backends[1].Ready
	})

	query := fmt.Sprintf(`{"elements":%s,"lo":0.3,"hi":1.0}`, mustJSON(elemsOf(12)))
	directP := doPost(t, primarySrv.URL+"/query", query)
	directF := doPost(t, followerSrv.URL+"/query", query)
	if !bytes.Equal(matchesOf(t, directP), matchesOf(t, directF)) {
		t.Fatalf("primary and follower answers differ:\n%s\n%s", directP, directF)
	}

	// Routed answers match the direct ones regardless of which backend
	// won; repeat so round-robin and hedging both exercise.
	for i := 0; i < 20; i++ {
		code, routed := postJSON(t, rt, "/query", query)
		if code != http.StatusOK {
			t.Fatalf("routed query %d: status %d: %s", i, code, routed)
		}
		if !bytes.Equal(matchesOf(t, routed), matchesOf(t, directP)) {
			t.Fatalf("routed answer %d diverges:\n%s\nwant matches %s", i, routed, matchesOf(t, directP))
		}
	}

	// Batch scatters across backends and reassembles positionally.
	var queries []string
	for i := 0; i < 9; i++ {
		queries = append(queries, fmt.Sprintf(`{"elements":%s,"lo":0.3,"hi":1.0}`, mustJSON(elemsOf(i*4))))
	}
	batch := fmt.Sprintf(`{"queries":[%s]}`, joinComma(queries))
	directBatch := doPost(t, primarySrv.URL+"/query/batch", batch)
	code, routedBatch := postJSON(t, rt, "/query/batch", batch)
	if code != http.StatusOK {
		t.Fatalf("routed batch: status %d: %s", code, routedBatch)
	}
	var want, got struct {
		Results []struct {
			Matches json.RawMessage `json:"matches"`
		} `json:"results"`
	}
	if err := json.Unmarshal(directBatch, &want); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(routedBatch, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != len(want.Results) {
		t.Fatalf("routed batch returned %d results, want %d", len(got.Results), len(want.Results))
	}
	for i := range want.Results {
		if !bytes.Equal(got.Results[i].Matches, want.Results[i].Matches) {
			t.Fatalf("batch result %d diverges:\n%s\nwant %s", i, got.Results[i].Matches, want.Results[i].Matches)
		}
	}

	// Writes route to the primary (and only the primary accepts them).
	code, body := postJSON(t, rt, "/sets", fmt.Sprintf(`{"elements":%s}`, mustJSON(elemsOf(999))))
	if code != http.StatusCreated {
		t.Fatalf("routed write: status %d: %s", code, body)
	}
	code, body = postJSON(t, httptestHandler(followerSrv), "/sets", fmt.Sprintf(`{"elements":%s}`, mustJSON(elemsOf(998))))
	if code != http.StatusForbidden {
		t.Fatalf("follower accepted a write: status %d: %s", code, body)
	}
}

// TestRouterHedgesSlowBackend fronts one artificially slow backend and
// one fast one; hedged reads must come back fast and the hedge counter
// must move.
func TestRouterHedgesSlowBackend(t *testing.T) {
	fast := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"matches":[]}`)
	}))
	defer fast.Close()
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		time.Sleep(300 * time.Millisecond)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"matches":[]}`)
	}))
	defer slow.Close()

	rt := NewRouter(RouterOptions{
		Primary:    slow.URL, // primary is the slow one; hedging saves the read
		Followers:  []string{fast.URL},
		HedgeDelay: 10 * time.Millisecond,
		// A slow probe interval keeps readiness steady once both backends
		// answer: a probe that times out under load would otherwise drop
		// the slow backend from the read order and with it every hedge.
		ProbeEvery: time.Second,
	})
	defer closeWithin(t, "Router.probeLoop", rt.Close)
	// With both backends ready the round-robin order puts the slow one
	// first on every other read; before that, a router that has heard
	// only from the fast backend sends every read there alone.
	waitFor(t, "both backends ready", func() bool {
		return rt.backends[0].ready.Load() && rt.backends[1].ready.Load()
	})

	var hedged bool
	for i := 0; i < 10; i++ {
		start := time.Now()
		code, body := postJSON(t, rt, "/query", `{"elements":["a"],"lo":0.5,"hi":1.0}`)
		if code != http.StatusOK {
			t.Fatalf("hedged read %d: status %d: %s", i, code, body)
		}
		// A read served under the slow backend's latency proves the hedge
		// fired and won at least once across the loop.
		if time.Since(start) < 250*time.Millisecond {
			hedged = true
		}
	}
	if !hedged {
		t.Fatal("no hedged read beat the slow backend")
	}
	if rt.hedges.Load() == 0 {
		t.Fatal("hedge counter never moved")
	}
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}

func joinComma(parts []string) string {
	return string(bytes.Join(func() [][]byte {
		out := make([][]byte, len(parts))
		for i, p := range parts {
			out[i] = []byte(p)
		}
		return out
	}(), []byte(",")))
}

func doPost(t *testing.T, url, body string) []byte {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d: %s", url, resp.StatusCode, data)
	}
	return data
}

func httptestHandler(srv *httptest.Server) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r2, err := http.NewRequest(r.Method, srv.URL+r.URL.RequestURI(), r.Body)
		if err != nil {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		r2.Header = r.Header
		resp, err := http.DefaultClient.Do(r2)
		if err != nil {
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
	})
}
