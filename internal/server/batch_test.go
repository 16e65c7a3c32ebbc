package server

import (
	"net/http"
	"testing"
)

func TestQueryBatchEndpoint(t *testing.T) {
	srv, ix := testServer(t)
	resp := postJSON(t, srv.URL+"/query/batch", map[string]any{
		"queries": []map[string]any{
			{"elements": []string{"dune", "foundation", "hyperion", "neuromancer"}, "lo": 0.9, "hi": 1.0},
			{"elements": []string{"page-1", "page-2"}, "lo": 0.9, "hi": 1.0},
			{"elements": []string{"dune"}, "lo": 0.9, "hi": 0.1}, // inverted
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	body := decode[batchResponse](t, resp)
	if len(body.Results) != 3 {
		t.Fatalf("results = %d, want 3", len(body.Results))
	}

	// Entry 0 must match the single-query endpoint exactly.
	want, _, err := ix.Query([]string{"dune", "foundation", "hyperion", "neuromancer"}, 0.9, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	got := body.Results[0]
	if got.Error != "" || len(got.Matches) != len(want) {
		t.Fatalf("entry 0 = %+v, want %d matches", got, len(want))
	}
	for i := range want {
		if got.Matches[i] != want[i] {
			t.Fatalf("entry 0 match %d: %+v vs %+v", i, got.Matches[i], want[i])
		}
	}
	if body.Results[1].Error != "" {
		t.Fatalf("entry 1 errored: %s", body.Results[1].Error)
	}
	if body.Results[2].Error == "" {
		t.Fatal("inverted range did not error")
	}
	// Errors are positional, not global: entry 2's failure left 0 and 1 intact.
	if body.Results[2].Matches == nil {
		t.Fatal("errored entry should still carry an empty matches array")
	}
}

func TestQueryBatchScreening(t *testing.T) {
	srv, _ := testServer(t)
	resp := postJSON(t, srv.URL+"/query/batch", map[string]any{
		"queries": []map[string]any{
			{"elements": []string{"dune", "foundation", "hyperion", "neuromancer"}, "lo": 0.9, "hi": 1.0},
		},
		"screen":       true,
		"screenMargin": 1.0,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	body := decode[batchResponse](t, resp)
	// Margin 1 widens the window to everything: nothing may be screened and
	// the exact duplicates must survive.
	if body.Results[0].Stats.Screened != 0 {
		t.Fatalf("margin=1 screened %d", body.Results[0].Stats.Screened)
	}
	if len(body.Results[0].Matches) != 2 {
		t.Fatalf("matches = %+v", body.Results[0].Matches)
	}
}

func TestQueryBatchValidation(t *testing.T) {
	srv, _ := testServer(t)
	cases := []struct {
		name string
		body map[string]any
	}{
		{"empty", map[string]any{"queries": []map[string]any{}}},
		{"missing elements", map[string]any{"queries": []map[string]any{{"lo": 0.1, "hi": 0.9}}}},
	}
	for _, tc := range cases {
		resp := postJSON(t, srv.URL+"/query/batch", tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
		resp.Body.Close()
	}
	resp, err := http.Get(srv.URL + "/query/batch")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET: status %d, want 405", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestQueryBatchRejectsNegativeScreenMargin checks that a negative
// screening margin fails the whole /query/batch request with 400 rather
// than being read as the default. (/query takes no screening options.)
func TestQueryBatchRejectsNegativeScreenMargin(t *testing.T) {
	srv, _ := testServer(t)
	resp := postJSON(t, srv.URL+"/query/batch", map[string]any{
		"screen": true, "screenMargin": -1,
		"queries": []map[string]any{{"elements": []string{"a"}, "lo": 0.5, "hi": 1}},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
}
