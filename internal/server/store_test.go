// The persistence contract of the serving layer: a daemon booted with a
// result store survives a restart with a hot cache. A repeat workload
// after kill-and-reboot is served byte-identically with zero pipeline
// re-runs; partial results never become durable; the store acts as a
// durable L2 behind the LRU; and a store fault degrades to a recompute,
// never a failed request.
package server

import (
	"bytes"
	"context"
	"encoding/hex"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/store"
)

// bootServer opens the store at dir and boots a server on it, returning
// a teardown that drains the server and closes the store — one daemon
// incarnation.
func bootServer(t testing.TB, dir string, cfg Config) (*Server, *httptest.Server, func()) {
	t.Helper()
	stor, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = stor
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	return s, ts, func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
		if err := stor.Close(); err != nil {
			t.Errorf("close store: %v", err)
		}
	}
}

// TestRestartServesFromStore is the restart contract test of the issue:
// run a workload against a store-backed daemon, kill it, boot a fresh
// incarnation on the same directory, and the repeat workload must be
// served byte-identically with the cache marker and ZERO pipeline
// re-runs. A partial result produced in the first life must NOT have
// become durable.
func TestRestartServesFromStore(t *testing.T) {
	if testing.Short() {
		t.Skip("restart contract test synthesizes real designs; too slow for -short")
	}
	base := runtime.NumGoroutine()
	dir := t.TempDir()
	workload := []string{
		`{"bench":"ex","width":4}`,
		`{"bench":"ex","width":8,"method":"camad"}`,
		`{"bench":"tseng","width":4}`,
	}

	// Life 1: compute the workload, plus one deadline-starved request
	// whose partial result must stay in-memory only.
	first := make([][]byte, len(workload))
	{
		st := stats.New()
		_, ts, down := bootServer(t, dir, Config{QueueDepth: 16, Jobs: 2, CacheSize: 16, Stats: st})
		for i, body := range workload {
			status, h, got := post(t, ts.Client(), ts.URL+"/v1/synthesize", body)
			if status != http.StatusOK {
				t.Fatalf("life 1 request %d: status %d: %s", i, status, got)
			}
			if h.Get("X-Hlts-Result") == "cached" {
				t.Fatalf("life 1 request %d served from cache on a cold store", i)
			}
			first[i] = got
		}
		if status, _, got := post(t, ts.Client(), ts.URL+"/v1/synthesize", `{"bench":"dct","width":16,"deadline_ms":1}`); status != http.StatusOK || !strings.Contains(string(got), `"status":"partial"`) {
			t.Fatalf("starved request: status %d: %s", status, got)
		}
		if runs := st.Value("server.jobs.run"); runs != int64(len(workload))+1 {
			t.Fatalf("life 1 ran %d jobs", runs)
		}
		down() // SIGTERM-equivalent: drain and close
	}

	// Life 2: a fresh process on the same directory. The repeat workload
	// must hit without a single pipeline run.
	{
		st := stats.New()
		s, ts, down := bootServer(t, dir, Config{QueueDepth: 16, Jobs: 2, CacheSize: 16, Stats: st})
		downed := false
		shutdown := func() {
			if !downed {
				downed = true
				down()
			}
		}
		defer shutdown()
		for i, body := range workload {
			status, h, got := post(t, ts.Client(), ts.URL+"/v1/synthesize", body)
			if status != http.StatusOK {
				t.Fatalf("life 2 request %d: status %d: %s", i, status, got)
			}
			if h.Get("X-Hlts-Result") != "cached" {
				t.Errorf("life 2 request %d not served from cache (header %q)", i, h.Get("X-Hlts-Result"))
			}
			if !bytes.Equal(got, first[i]) {
				t.Errorf("life 2 request %d differs from life 1:\n got %s\nwant %s", i, got, first[i])
			}
		}
		if runs := st.Value("server.jobs.run"); runs != 0 {
			t.Errorf("restarted daemon recomputed %d jobs for a repeat workload", runs)
		}
		if warmed := st.Value("server.store.warmed"); warmed != int64(len(workload)) {
			t.Errorf("boot warmed %d records, want %d (partial result leaked into the store?)", warmed, len(workload))
		}
		// The store surfaces in the metrics exposition.
		if status, body := get(t, ts.Client(), ts.URL+"/metrics"); status != 200 || !strings.Contains(string(body), "hlts_server_store_records 3") {
			t.Errorf("metrics missing store gauges: %d\n%s", status, body)
		}
		// The starved request's partial result was never persisted: asking
		// again recomputes (no cached marker).
		if _, h, _ := post(t, ts.Client(), ts.URL+"/v1/synthesize", `{"bench":"dct","width":16,"deadline_ms":1}`); h.Get("X-Hlts-Result") == "cached" {
			t.Error("partial result survived the restart as truth")
		}
		if s.st.Value("server.store.error") != 0 {
			t.Errorf("store errors: %d", s.st.Value("server.store.error"))
		}
		shutdown() // drain before the leak check below
	}
	settle(t, base)
}

// TestStoreMissesOlderATPGOutput: a store written by an engine with an
// older atpgOutputVersion holds /v1/testdesign bytes under that version's
// fingerprint. The same request after the bump must miss those records
// and compute a fresh answer, never serve a stale one.
func TestStoreMissesOlderATPGOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real ATPG campaign; too slow for -short")
	}
	base := runtime.NumGoroutine()
	dir := t.TempDir()
	const body = `{"bench":"ex","width":4,"faults":300,"bist":{"tpg":2,"misr":2}}`
	stale := []byte(`{"stale":true}`)
	stor, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The fingerprints of this request before atpgOutputVersion existed
	// and at version 1 (BacktrackLimit 60).
	for _, old := range []string{"024171ae024862e1609204a199b1f377", "3eda419b8abb0ebda4f6dc0b6778e760"} {
		var fp core.Fingerprint
		if _, err := hex.Decode(fp[:], []byte(old)); err != nil {
			t.Fatal(err)
		}
		if err := stor.Put(fp, encodeResult(result{status: http.StatusOK, body: stale})); err != nil {
			t.Fatal(err)
		}
	}
	if err := stor.Close(); err != nil {
		t.Fatal(err)
	}

	st := stats.New()
	_, ts, down := bootServer(t, dir, Config{QueueDepth: 4, Jobs: 1, CacheSize: 4, Stats: st})
	status, h, got := post(t, ts.Client(), ts.URL+"/v1/testdesign", body)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, got)
	}
	if h.Get("X-Hlts-Result") == "cached" || bytes.Equal(got, stale) {
		t.Errorf("post-bump request served the pre-bump record (header %q): %s", h.Get("X-Hlts-Result"), got)
	}
	if runs := st.Value("server.jobs.run"); runs != 1 {
		t.Errorf("jobs.run = %d, want 1", runs)
	}
	down()
	settle(t, base)
}

// TestStoreIsDurableL2: a result evicted from the LRU is still served
// from the store — one verified read, no recompute — and re-enters the
// LRU on the way out.
func TestStoreIsDurableL2(t *testing.T) {
	base := runtime.NumGoroutine()
	st := stats.New()
	stor, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer stor.Close()
	// LRU of 1: the second job evicts the first.
	q := newQueue(4, 1, 1, st, stor)
	runBody := func(body string) func(ctx context.Context) (int, []byte, bool) {
		return func(ctx context.Context) (int, []byte, bool) { return http.StatusOK, []byte(body), true }
	}
	wait := func(fp, body string) {
		t.Helper()
		j, cached, err := q.submit(fpOf(fp), "synthesize", time.Minute, runBody(body))
		if err != nil || cached != nil {
			t.Fatalf("submit %s: j=%v cached=%v err=%v", fp, j, cached, err)
		}
		<-j.done
	}
	wait("A", "result-A")
	wait("B", "result-B") // evicts A from the 1-entry LRU
	j, cached, err := q.submit(fpOf("A"), "synthesize", time.Minute, runBody("MUST NOT RUN"))
	if err != nil || j != nil {
		t.Fatalf("resubmit A: j=%v err=%v", j, err)
	}
	if cached == nil || string(cached.body) != "result-A" {
		t.Fatalf("evicted result not served from store: %+v", cached)
	}
	if st.Value("server.store.hit") != 1 {
		t.Errorf("store.hit = %d, want 1", st.Value("server.store.hit"))
	}
	if st.Value("server.jobs.run") != 2 {
		t.Errorf("jobs.run = %d, want 2", st.Value("server.jobs.run"))
	}
	// The L2 hit repopulated the LRU: the next lookup is an L1 hit.
	if _, cached, _ := q.submit(fpOf("A"), "synthesize", time.Minute, runBody("MUST NOT RUN")); cached == nil {
		t.Fatal("store hit did not repopulate the LRU")
	} else if st.Value("server.cache.hit") != 1 {
		t.Errorf("cache.hit = %d, want 1", st.Value("server.cache.hit"))
	}
	if err := q.drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	settle(t, base)
}

// TestStoreFaultDegradesToRecompute: a store that panics on every call
// must cost recomputes and error counters, never a failed request.
func TestStoreFaultDegradesToRecompute(t *testing.T) {
	base := runtime.NumGoroutine()
	st := stats.New()
	// A closed store is the cheapest real fault a store can present: warm
	// finds nothing, Get misses, and every Put fails with ErrClosed.
	stor, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	stor.Close()
	q := newQueue(4, 1, 4, st, stor)
	j, cached, err := q.submit(fpOf("X"), "synthesize", time.Minute, func(ctx context.Context) (int, []byte, bool) {
		return http.StatusOK, []byte("computed"), true
	})
	if err != nil || cached != nil {
		t.Fatalf("submit: cached=%v err=%v", cached, err)
	}
	<-j.done
	if j.res.status != http.StatusOK || string(j.res.body) != "computed" {
		t.Fatalf("request failed under store fault: %d %s", j.res.status, j.res.body)
	}
	if st.Value("server.store.error") == 0 {
		t.Error("store fault not counted")
	}
	if err := q.drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	settle(t, base)
}
