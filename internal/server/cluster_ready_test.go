// Tests for the serving-layer pieces the cluster rides on: the jittered
// Retry-After hint, the request-body cap, and the utilization snapshot
// workers carry in their heartbeats.
package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestRetryAfterJitterRange: the emitted hint is seeded-deterministic,
// always within [RetryAfter, 1.5*RetryAfter] whole seconds, and actually
// spreads — a burst of rejected clients must not come back in lockstep.
func TestRetryAfterJitterRange(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	hint := 4 * time.Second
	s := New(Config{RetryAfter: hint, RetryJitterSeed: 7})
	s2 := New(Config{RetryAfter: hint, RetryJitterSeed: 7})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
		drainAndSettle(t, s2, goroutines)
	}()

	draw := func(s *Server) int {
		rec := httptest.NewRecorder()
		s.jitter.SetRetryAfter(rec, s.cfg.RetryAfter)
		secs, err := strconv.Atoi(rec.Header().Get("Retry-After"))
		if err != nil {
			t.Fatalf("Retry-After %q: %v", rec.Header().Get("Retry-After"), err)
		}
		return secs
	}
	distinct := map[int]bool{}
	for i := 0; i < 64; i++ {
		secs := draw(s)
		if secs < 4 || secs > 6 {
			t.Fatalf("draw %d: Retry-After %ds outside [4s, 6s]", i, secs)
		}
		distinct[secs] = true
		// Same seed, same draw index: the hint sequence is reproducible.
		if other := draw(s2); other != secs {
			t.Fatalf("draw %d: seeded jitter diverged (%d vs %d)", i, secs, other)
		}
	}
	if len(distinct) < 2 {
		t.Errorf("64 draws produced %d distinct hints; jitter is not spreading", len(distinct))
	}
}

// TestRetryAfterJitterOnWire: the jittered hint is what a rejected
// client actually receives while the server drains.
func TestRetryAfterJitterOnWire(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	s := New(Config{RetryAfter: 4 * time.Second, RetryJitterSeed: 3})
	drainAndSettle(t, s, goroutines) // draining: every request now bounces 503

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/synthesize", strings.NewReader(`{"bench":"ex","width":4}`)))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining status %d, want 503", rec.Code)
	}
	ra := rec.Header().Get("Retry-After")
	if ra != "4" && ra != "5" && ra != "6" {
		t.Errorf("Retry-After %q outside the jitter window [4, 6]", ra)
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
