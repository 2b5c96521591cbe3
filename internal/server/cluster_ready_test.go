// Tests for the serving-layer pieces the cluster rides on: the jittered
// Retry-After hint, the request-body cap, and the utilization snapshot
// workers carry in their heartbeats.
package server

import (
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// TestRetryAfterJitterRange: the emitted hint is seeded-deterministic,
// always a whole number of seconds in [ceil(RetryAfter),
// ceil(1.5*RetryAfter)] = [1, 2], and actually spreads over both values —
// a burst of rejected clients must not come back in lockstep.
func TestRetryAfterJitterRange(t *testing.T) {
	a, b := NewJitter(7), NewJitter(7)
	draw := func(j *Jitter) int {
		rec := httptest.NewRecorder()
		j.SetRetryAfter(rec)
		secs, err := strconv.Atoi(rec.Header().Get("Retry-After"))
		if err != nil {
			t.Fatalf("Retry-After %q: %v", rec.Header().Get("Retry-After"), err)
		}
		return secs
	}
	seen := map[int]int{}
	for i := 0; i < 64; i++ {
		secs := draw(a)
		if secs < 1 || secs > 2 {
			t.Fatalf("draw %d: Retry-After %ds outside [1s, 2s]", i, secs)
		}
		seen[secs]++
		// Same seed, same draw index: the hint sequence is reproducible.
		if other := draw(b); other != secs {
			t.Fatalf("draw %d: seeded jitter diverged (%d vs %d)", i, secs, other)
		}
	}
	if seen[1] == 0 || seen[2] == 0 {
		t.Errorf("64 draws gave %v; the hint must take both 1 and 2", seen)
	}
}

// TestRetryAfterJitterOnWire: the jittered hint is what a rejected
// client actually receives while the server drains.
func TestRetryAfterJitterOnWire(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	s := New(Config{RetryJitterSeed: 3})
	drainAndSettle(t, s, goroutines) // draining: every request now bounces 503

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/synthesize", strings.NewReader(`{"bench":"ex","width":4}`)))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining status %d, want 503", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "1" && ra != "2" {
		t.Errorf("Retry-After %q outside the jitter window [1, 2]", ra)
	}
}

// TestMaxBodyBytes: an over-cap request body is cut off at the reader
// and answered a typed 413; an in-cap body is unaffected.
func TestMaxBodyBytes(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	s := New(Config{MaxBodyBytes: 128})
	defer func() { drainAndSettle(t, s, goroutines) }()

	rec := httptest.NewRecorder()
	huge := `{"vhdl":"` + strings.Repeat("x", 4096) + `"}`
	s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/synthesize", strings.NewReader(huge)))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413 (%s)", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "error") {
		t.Errorf("413 body not typed: %s", rec.Body.String())
	}

	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/synthesize", strings.NewReader(`{"bench":"ex","width":4}`)))
	if rec.Code != http.StatusOK {
		t.Fatalf("in-cap body: status %d, want 200 (%s)", rec.Code, rec.Body.String())
	}
}

// TestSnapshot: the heartbeat utilization view reflects work done, and
// carries no store gauge without a store.
func TestSnapshot(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	s := New(Config{QueueDepth: 7, Jobs: 3})
	defer func() { drainAndSettle(t, s, goroutines) }()

	snap := s.Snapshot()
	if snap.Queued != 0 || snap.Inflight != 0 || snap.JobsRun != 0 || snap.Store != nil {
		t.Errorf("idle snapshot not zero: %+v", snap)
	}

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/synthesize", strings.NewReader(`{"bench":"ex","width":4}`)))
	if rec.Code != http.StatusOK {
		t.Fatalf("job failed: %d", rec.Code)
	}
	if snap = s.Snapshot(); snap.JobsRun != 1 {
		t.Errorf("JobsRun = %d after one job, want 1", snap.JobsRun)
	}
}
