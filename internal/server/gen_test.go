package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	hlts "repro"
)

// TestGeneratedBenchRequests drives the daemon with "gen:" benchmark
// names: generated behaviours must serve like built-ins — contract
// equality with the direct library path, cache hits on repeats, typed
// 400s on malformed specs — with no request-schema change.
func TestGeneratedBenchRequests(t *testing.T) {
	name := hlts.GenSpec{Seed: 41, Ops: 12}.Name()
	loopName := hlts.GenSpec{Seed: 42, Ops: 12, Mix: "diffeq", Loop: true}.Name()

	s := New(Config{QueueDepth: 16, Jobs: 2, CacheSize: 16})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	body := `{"bench":"` + name + `","width":4}`
	status, hdr, got := post(t, client, ts.URL+"/v1/synthesize", body)
	if status != http.StatusOK {
		t.Fatalf("gen synthesize: status %d: %s", status, got)
	}
	want := directSynthesize(t, SynthesizeRequest{Bench: name, Width: 4})
	if !bytes.Equal(got, want) {
		t.Errorf("gen synthesize differs from direct computation:\n got %s\nwant %s", got, want)
	}
	if hdr.Get("X-Hlts-Result") == "cached" {
		t.Errorf("first gen request served from cache")
	}

	// Repeat: byte-identical and served from the cache — generated
	// graphs fingerprint stably.
	status, hdr, again := post(t, client, ts.URL+"/v1/synthesize", body)
	if status != http.StatusOK {
		t.Fatalf("repeat: status %d: %s", status, again)
	}
	if !bytes.Equal(again, got) {
		t.Errorf("repeat response differs:\n got %s\nwant %s", again, got)
	}
	if hdr.Get("X-Hlts-Result") != "cached" {
		t.Errorf("repeat gen request not served from cache (X-Hlts-Result=%q)", hdr.Get("X-Hlts-Result"))
	}

	// A looping spec's graph names its loop: the response
	// must be complete, and distinct from a spec without the idiom.
	status, _, loopGot := post(t, client, ts.URL+"/v1/synthesize", `{"bench":"`+loopName+`","width":4}`)
	if status != http.StatusOK {
		t.Fatalf("loop spec: status %d: %s", status, loopGot)
	}
	if !strings.Contains(string(loopGot), `"status":"complete"`) {
		t.Errorf("loop spec not complete: %s", loopGot)
	}

	// Malformed specs are caller errors: typed 400 with a JSON body.
	for _, bad := range []string{"gen:bogus", "gen:s1-o9999", "gen:s1-o8-mnope"} {
		status, _, errBody := post(t, client, ts.URL+"/v1/synthesize", `{"bench":"`+bad+`","width":4}`)
		if status != http.StatusBadRequest {
			t.Errorf("bench %q: status %d, want 400 (%s)", bad, status, errBody)
		}
		if !strings.Contains(string(errBody), `"error"`) {
			t.Errorf("bench %q: error body not typed JSON: %s", bad, errBody)
		}
	}

	// Generated names work through the table endpoint too.
	status, tbl := get(t, client, ts.URL+"/v1/table/"+name+"?widths=4&faults=30")
	if status != http.StatusOK {
		t.Fatalf("gen table: status %d: %s", status, tbl)
	}
	if !strings.Contains(string(tbl), `"Benchmark":"`+name+`"`) && !strings.Contains(string(tbl), name) {
		t.Errorf("gen table response does not mention %s: %.200s", name, tbl)
	}
}
