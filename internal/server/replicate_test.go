// Tests of the worker-side replication surface: the /store/v1/pull wire
// endpoint, its typed 400s for bad cursors, and the degradation
// contracts — a daemon without a store answers typed 404s, a disk-full
// store under a live daemon costs counters and recomputes but never a
// failed request, and the corruption counters surface in /metrics.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/store"
)

func getJSON(t *testing.T, client *http.Client, url string, v any) int {
	t.Helper()
	status, body := get(t, client, url)
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("GET %s: bad JSON %q: %v", url, body, err)
	}
	return status
}

// TestStoreWireEndpoints drives /store/v1/pull end to end over HTTP:
// from the zero cursor, pull streams every record as a verified frame
// across batches, in the store's current epoch.
func TestStoreWireEndpoints(t *testing.T) {
	base := runtime.NumGoroutine()
	s, ts, down := bootServer(t, t.TempDir(), Config{QueueDepth: 8, Jobs: 1, CacheSize: 8})
	defer settle(t, base)
	defer down()

	want := map[core.Fingerprint][]byte{}
	for i := 0; i < 5; i++ {
		fp := fpOf("wire", fmt.Sprint(i))
		val := []byte(fmt.Sprintf("record-body-%d", i))
		if err := s.cfg.Store.Put(fp, val); err != nil {
			t.Fatal(err)
		}
		want[fp] = val
	}

	// Walk the pull stream in batches of 2 from the zero cursor, decoding
	// (and thereby checking) every frame.
	got := map[core.Fingerprint][]byte{}
	var cur store.Cursor
	for rounds := 0; ; rounds++ {
		var pr PullResponse
		u := fmt.Sprintf("%s/store/v1/pull?gen=%d&seg=%d&off=%d&max=2", ts.URL, cur.Gen, cur.Seg, cur.Off)
		if status := getJSON(t, ts.Client(), u, &pr); status != http.StatusOK {
			t.Fatalf("pull: status %d", status)
		}
		recs, err := store.DecodeFrames(pr.Frames)
		if err != nil {
			t.Fatalf("pulled frame failed to decode: %v", err)
		}
		for _, rec := range recs {
			got[rec.FP] = rec.Val
		}
		cur = pr.Next
		if !pr.More {
			break
		}
		if rounds > 100 {
			t.Fatal("pull never drained")
		}
	}
	if len(got) != len(want) {
		t.Fatalf("pulled %d records, want %d", len(got), len(want))
	}
	if end := s.cfg.Store.Stats().Cursor; cur != end || cur.Gen == 0 {
		t.Fatalf("drained cursor %+v, want the end of the log %+v in a nonzero epoch", cur, end)
	}
	for fp, val := range want {
		if !bytes.Equal(got[fp], val) {
			t.Fatalf("pulled %s = %q, want %q", fp, got[fp], val)
		}
	}
}

// TestStoreEndpointsWithoutStore: a daemon running in-memory-only
// answers /store/v1/pull with a typed 404 — replication is an opt-in
// property of -store mode, not an error state.
func TestStoreEndpointsWithoutStore(t *testing.T) {
	s := New(Config{QueueDepth: 4, Jobs: 1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	for _, u := range []string{"/store/v1/pull", "/store/v1/pull?gen=1&seg=1&off=64"} {
		status, body := get(t, ts.Client(), ts.URL+u)
		var eb ErrorBody
		if status != http.StatusNotFound || json.Unmarshal(body, &eb) != nil || eb.Error == "" {
			t.Errorf("GET %s without store: status %d body %s, want typed 404", u, status, body)
		}
	}
}

// TestStorePullRejectsWrappingOffset: off is an int64 cursor field, so
// 2^63 and above answer the typed 400 of any other bad cursor value
// instead of wrapping negative; the largest int64 is still a valid (if
// empty) pull.
func TestStorePullRejectsWrappingOffset(t *testing.T) {
	s, ts, down := bootServer(t, t.TempDir(), Config{QueueDepth: 1, Jobs: 1, CacheSize: -1})
	defer down()
	if err := s.cfg.Store.Put(fpOf("off"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	gen := s.cfg.Store.Stats().Cursor.Gen
	for off, want := range map[string]int{
		"9223372036854775807":  http.StatusOK,
		"9223372036854775808":  http.StatusBadRequest,
		"18446744073709551615": http.StatusBadRequest,
	} {
		u := fmt.Sprintf("%s/store/v1/pull?gen=%d&seg=1&off=%s", ts.URL, gen, off)
		status, body := get(t, ts.Client(), u)
		if status != want {
			t.Errorf("off=%s: status %d, want %d: %s", off, status, want, body)
		}
		var eb ErrorBody
		if status == http.StatusBadRequest && (json.Unmarshal(body, &eb) != nil || !strings.HasPrefix(eb.Error, "bad off")) {
			t.Errorf("off=%s: untyped 400 body %s", off, body)
		}
	}
}

// FuzzStorePull sends arbitrary gen/seg/off/max query values to
// /store/v1/pull on a store holding a few records. Every answer is a
// typed 200 whose frames all decode, or a typed 400; a 500 would be a
// panic the handler guard caught.
func FuzzStorePull(f *testing.F) {
	for _, q := range [][4]string{
		{"", "", "", ""}, {"1", "0", "0", "2"}, {"0", "1", "64", "1024"},
		{"-1", "x", "18446744073709551615", "0"}, {"99999999999999999999", "", "", "-5"},
		{"", "", "9223372036854775808", "2000"}, {"1e3", " 1", "0x10", "1.5"},
	} {
		f.Add(q[0], q[1], q[2], q[3])
	}
	s, _, down := bootServer(f, f.TempDir(), Config{QueueDepth: 1, Jobs: 1, CacheSize: -1})
	f.Cleanup(down)
	for i := 0; i < 3; i++ {
		if err := s.cfg.Store.Put(fpOf("pull", fmt.Sprint(i)), []byte(fmt.Sprintf("value-%d", i))); err != nil {
			f.Fatal(err)
		}
	}
	h := s.Handler()
	f.Fuzz(func(t *testing.T, gen, seg, off, max string) {
		q := url.Values{"gen": {gen}, "seg": {seg}, "off": {off}, "max": {max}}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/store/v1/pull?"+q.Encode(), nil))
		switch rec.Code {
		case http.StatusOK:
			var pr PullResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &pr); err != nil {
				t.Fatalf("200 with an undecodable body %q: %v", rec.Body, err)
			}
			if _, err := store.DecodeFrames(pr.Frames); err != nil {
				t.Fatalf("pulled frame failed to decode: %v", err)
			}
		case http.StatusBadRequest:
			var eb ErrorBody
			if json.Unmarshal(rec.Body.Bytes(), &eb) != nil || eb.Error == "" {
				t.Fatalf("untyped 400 body %q", rec.Body)
			}
		default:
			t.Fatalf("pull %s answered %d: %s", q.Encode(), rec.Code, rec.Body)
		}
	})
}

// TestStoreWriteFaultUnderLiveDaemon is the disk-full drill: every
// store append fails (the chaos store.write site erroring with
// probability 1 is an ENOSPC stand-in) under a LIVE daemon serving real
// requests. The contract: every request still answers 200, no 5xx ever
// escapes, and the faults surface as server.store.error counters.
func TestStoreWriteFaultUnderLiveDaemon(t *testing.T) {
	if testing.Short() {
		t.Skip("live-daemon fault drill synthesizes real designs; too slow for -short")
	}
	base := runtime.NumGoroutine()
	in := chaos.New(7).On(chaos.SiteStoreWrite, chaos.Rule{Action: chaos.ActError, Prob: 1})
	restore := chaos.Install(in)
	defer restore()

	st := stats.New()
	_, ts, down := bootServer(t, t.TempDir(), Config{QueueDepth: 8, Jobs: 2, CacheSize: 0, Stats: st})
	defer settle(t, base)
	defer down()

	// CacheSize 0 forces every repeat onto the store path, which is down.
	for pass := 0; pass < 2; pass++ {
		for _, body := range []string{`{"bench":"ex","width":4}`, `{"bench":"ex","width":8}`} {
			status, _, got := post(t, ts.Client(), ts.URL+"/v1/synthesize", body)
			if status != http.StatusOK {
				t.Fatalf("pass %d %s: status %d (a full disk must never fail a request): %s", pass, body, status, got)
			}
		}
	}
	if in.Fired(chaos.SiteStoreWrite) == 0 {
		t.Fatal("store.write site never fired — the drill tested nothing")
	}
	if st.Value("server.store.error") == 0 {
		t.Error("store write faults not counted in server.store.error")
	}
	if st.Value("server.jobs.panicked") != 0 {
		t.Errorf("store faults leaked into job panics: %d", st.Value("server.jobs.panicked"))
	}
}

// TestMetricsSurfaceCorruptionCounters: a store directory carrying both
// a bit-rotted record and a torn tail boots into a daemon whose
// /metrics exposition reports store.corrupt.dropped and
// store.torn.resealed — the satellite observability contract.
func TestMetricsSurfaceCorruptionCounters(t *testing.T) {
	base := runtime.NumGoroutine()
	dir := t.TempDir()
	stor, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	marker := []byte("metrics-rot-metrics-rot")
	if err := stor.Put(fpOf("m", "keep"), []byte("kept")); err != nil {
		t.Fatal(err)
	}
	if err := stor.Put(fpOf("m", "rot"), marker); err != nil {
		t.Fatal(err)
	}
	stor.Close()
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(data, marker)
	if i < 0 {
		t.Fatal("marker not found")
	}
	data[i] ^= 0xff                                     // bit rot: dropped at replay
	data = append(data, []byte("torn-partial-tail")...) // torn tail: resealed at open
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	st := stats.New()
	_, ts, down := bootServer(t, dir, Config{QueueDepth: 4, Jobs: 1, CacheSize: 4, Stats: st})
	defer settle(t, base)
	defer down()
	status, body := get(t, ts.Client(), ts.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics: status %d", status)
	}
	for _, want := range []string{
		"hlts_server_store_corrupt_dropped 1",
		"hlts_server_store_torn_resealed 1",
		"hlts_server_store_records 1",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}
