package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	ssr "repro"
)

// Tests for the node-role surface: liveness vs readiness, the read-only
// stance, and the per-request index resolver follower mode depends on.

func smallIndex(t *testing.T, sets int) *ssr.Index {
	t.Helper()
	c := ssr.NewCollection()
	for i := 0; i < sets; i++ {
		c.Add(fmt.Sprintf("e-%d", i), fmt.Sprintf("e-%d", i+1), "shared")
	}
	ix, err := ssr.Build(c, ssr.Options{Budget: 16, MinHashes: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func get(t *testing.T, h http.Handler, path string) (int, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr.Code, decode[map[string]any](t, rr.Result())
}

// TestLivezAlwaysAnswers: liveness is the process answering, full stop —
// an unready follower must still be live, or orchestrators restart nodes
// that are merely catching up.
func TestLivezAlwaysAnswers(t *testing.T) {
	srv := NewWithConfig(smallIndex(t, 8), Config{
		Role:      "follower",
		Readiness: func() (bool, map[string]any) { return false, nil },
	})
	code, body := get(t, srv, "/livez")
	if code != http.StatusOK {
		t.Fatalf("/livez on an unready node: status %d", code)
	}
	if body["status"] != "ok" {
		t.Fatalf("/livez body = %v", body)
	}
}

func TestReadyzStandalone(t *testing.T) {
	srv := New(smallIndex(t, 8))
	code, body := get(t, srv, "/readyz")
	if code != http.StatusOK {
		t.Fatalf("/readyz: status %d", code)
	}
	if body["ready"] != true || body["role"] != "standalone" {
		t.Fatalf("/readyz body = %v", body)
	}
	if _, ok := body["planGeneration"]; !ok {
		t.Fatalf("/readyz omits planGeneration: %v", body)
	}
}

// TestReadyzFollowerLifecycle: a follower is 503 (with its lag detail
// merged into the body) until its readiness callback flips, then 200.
func TestReadyzFollowerLifecycle(t *testing.T) {
	var caughtUp atomic.Bool
	srv := NewWithConfig(smallIndex(t, 8), Config{
		Role: "follower",
		Readiness: func() (bool, map[string]any) {
			return caughtUp.Load(), map[string]any{"lagBytes": float64(4096)}
		},
	})

	code, body := get(t, srv, "/readyz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("catching-up follower /readyz: status %d, want 503", code)
	}
	if body["ready"] != false || body["role"] != "follower" {
		t.Fatalf("/readyz body = %v", body)
	}
	if body["lagBytes"] != float64(4096) {
		t.Fatalf("readiness detail not merged: %v", body)
	}

	caughtUp.Store(true)
	code, body = get(t, srv, "/readyz")
	if code != http.StatusOK || body["ready"] != true {
		t.Fatalf("caught-up follower /readyz: status %d body %v", code, body)
	}
}

func TestReadOnlyNodeRejectsWrites(t *testing.T) {
	ix := smallIndex(t, 8)
	node := httptest.NewServer(NewWithConfig(ix, Config{Role: "follower", ReadOnly: true}))
	defer node.Close()

	resp := postJSON(t, node.URL+"/sets", map[string]any{"elements": []string{"x", "y"}})
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("read-only POST /sets: status %d, want 403", resp.StatusCode)
	}
	body := decode[map[string]any](t, resp)
	if _, ok := body["error"]; !ok {
		t.Fatalf("403 body carries no error: %v", body)
	}

	req, err := http.NewRequest(http.MethodDelete, node.URL+"/sets/0", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != http.StatusForbidden {
		t.Fatalf("read-only DELETE /sets/0: status %d, want 403", resp2.StatusCode)
	}
	resp2.Body.Close()

	// Reads stay open: read-only gates mutations, nothing else.
	resp3 := postJSON(t, node.URL+"/query", map[string]any{"elements": []string{"e-1", "e-2", "shared"}, "lo": 0.1, "hi": 1.0})
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("read-only POST /query: status %d, want 200", resp3.StatusCode)
	}
	resp3.Body.Close()
}

// TestIndexResolverFollowsSwap: follower resyncs swap in a fresh mirror;
// every request must resolve the index at call time, not at construction.
func TestIndexResolverFollowsSwap(t *testing.T) {
	first := smallIndex(t, 5)
	second := smallIndex(t, 9)
	var cur atomic.Pointer[ssr.Index]
	cur.Store(first)
	srv := NewWithConfig(nil, Config{
		Role:  "follower",
		Index: func() *ssr.Index { return cur.Load() },
	})

	code, body := get(t, srv, "/stats")
	if code != http.StatusOK || body["sets"] != float64(5) {
		t.Fatalf("before swap: status %d sets %v, want 5", code, body["sets"])
	}
	cur.Store(second)
	code, body = get(t, srv, "/stats")
	if code != http.StatusOK || body["sets"] != float64(9) {
		t.Fatalf("after swap: status %d sets %v, want 9", code, body["sets"])
	}
}
