package cluster

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// fastConfig is the test-speed coordinator tuning: millisecond beats and
// backoffs so failure paths run in a blink, deterministic jitter.
func fastConfig() Config {
	return Config{
		HeartbeatInterval: 25 * time.Millisecond,
		SuspectBeats:      2,
		DeadAfter:         250 * time.Millisecond,
		Rounds:            3,
		RetryBase:         time.Millisecond,
		RetryMax:          10 * time.Millisecond,
		MaxDeadline:       5 * time.Second,
		JitterSeed:        1,
	}
}

// mustNew builds a coordinator from a config New accepts.
func mustNew(t testing.TB, cfg Config) *Coordinator {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func newTestCoordinator(t *testing.T, cfg Config) *Coordinator {
	t.Helper()
	c := mustNew(t, cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := c.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return c
}

// fpOwnedBy scans for a fingerprint whose rendezvous owner is id, so
// tests can steer the first dispatch attempt deterministically.
func fpOwnedBy(t *testing.T, id string, ids []string) core.Fingerprint {
	t.Helper()
	for i := 0; i < 1024; i++ {
		fp := core.Fingerprint{byte(i), byte(i >> 8)}
		if Rank(fp, ids)[0] == id {
			return fp
		}
	}
	t.Fatalf("no fingerprint owned by %s among %v", id, ids)
	return core.Fingerprint{}
}

func okWorker(t *testing.T, body string) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Hlts-Result", "complete")
		w.Write([]byte(body))
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestDispatchFailoverOnTransportError: a dead node fails over to the
// next-ranked one, and the failure demotes the dead node to Suspect.
func TestDispatchFailoverOnTransportError(t *testing.T) {
	c := newTestCoordinator(t, fastConfig())
	good := okWorker(t, "answer")

	// A connection-refused address: the listener is closed immediately.
	deadTS := httptest.NewServer(http.NotFoundHandler())
	deadAddr := deadTS.URL
	deadTS.Close()

	c.reg.Register("dead", deadAddr, Capacity{})
	c.reg.Register("good", good.URL, Capacity{})

	// Steer the first attempt at the dead node so the failover is exercised.
	fp := fpOwnedBy(t, "dead", []string{"dead", "good"})
	up, err := c.dispatch(context.Background(), fp, proxyReq{method: "GET", path: "/"})
	if err != nil {
		t.Fatalf("dispatch: %v", err)
	}
	if up.node != "good" || string(up.body) != "answer" {
		t.Fatalf("dispatch answered from %q with %q", up.node, up.body)
	}
	for _, n := range c.reg.Nodes() {
		if n.ID == "dead" && n.State != "suspect" {
			t.Errorf("failed node is %s, want suspect", n.State)
		}
	}
	if c.st.Value("cluster.dispatch.error") == 0 {
		t.Error("transport failure not counted")
	}
}

// TestDispatchPushbackFailsOverInPass: a worker answering 429 sheds the
// job to the next-ranked node within the same pass — no backoff sleep,
// and the loaded node is NOT demoted (shedding is healthy behavior).
func TestDispatchPushbackFailsOverInPass(t *testing.T) {
	c := newTestCoordinator(t, fastConfig())
	busy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	t.Cleanup(busy.Close)
	good := okWorker(t, "carried")

	c.reg.Register("busy", busy.URL, Capacity{})
	c.reg.Register("good", good.URL, Capacity{})

	// First attempt must land on the shedding node for the test to bite.
	fp := fpOwnedBy(t, "busy", []string{"busy", "good"})
	start := time.Now()
	up, err := c.dispatch(context.Background(), fp, proxyReq{method: "GET", path: "/"})
	if err != nil {
		t.Fatalf("dispatch: %v", err)
	}
	if string(up.body) != "carried" {
		t.Fatalf("answer %q from %q", up.body, up.node)
	}
	// Same-pass shed: the 1s Retry-After hint must NOT have been slept on.
	if el := time.Since(start); el > 500*time.Millisecond {
		t.Errorf("same-pass failover slept %v", el)
	}
	for _, n := range c.reg.Nodes() {
		if n.ID == "busy" && n.State != "alive" {
			t.Errorf("load-shedding node demoted to %s", n.State)
		}
	}
	if c.st.Value("cluster.dispatch.pushback") == 0 {
		t.Error("pushback not counted")
	}
}

// TestDispatchWorkerErrorsRelayedWithoutRetry: a worker 500 (or 400) is
// an answer, not a dispatch failure — it comes back verbatim on the first
// attempt.
func TestDispatchWorkerErrorsRelayedWithoutRetry(t *testing.T) {
	c := newTestCoordinator(t, fastConfig())
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
		w.Write([]byte(`{"error":"boom"}`))
	}))
	t.Cleanup(ts.Close)
	c.reg.Register("a", ts.URL, Capacity{})

	up, err := c.dispatch(context.Background(), core.Fingerprint{3}, proxyReq{method: "GET", path: "/"})
	if err != nil {
		t.Fatalf("dispatch: %v", err)
	}
	if up.status != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", up.status)
	}
	if n := hits.Load(); n != 1 {
		t.Fatalf("worker hit %d times, want exactly 1 (5xx must not be retried)", n)
	}
}

// TestDispatchRetriesExhausted: when every pass fails, dispatch degrades
// to the typed error after exactly Rounds passes.
func TestDispatchRetriesExhausted(t *testing.T) {
	c := newTestCoordinator(t, fastConfig())
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Retry-After", "0")
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	t.Cleanup(ts.Close)
	c.reg.Register("a", ts.URL, Capacity{})

	_, err := c.dispatch(context.Background(), core.Fingerprint{4}, proxyReq{method: "GET", path: "/"})
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("err = %v, want ErrRetriesExhausted", err)
	}
	if n := hits.Load(); n != int64(c.cfg.Rounds) {
		t.Fatalf("worker hit %d times, want %d (one per round)", n, c.cfg.Rounds)
	}
}

// TestDispatchNoWorkers: an empty (or all-dead) membership is the other
// typed failure.
func TestDispatchNoWorkers(t *testing.T) {
	c := newTestCoordinator(t, fastConfig())
	_, err := c.dispatch(context.Background(), core.Fingerprint{5}, proxyReq{method: "GET", path: "/"})
	if !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("err = %v, want ErrNoWorkers", err)
	}
}

// TestDispatchHintFloorsBackoff: a worker Retry-After hint floors the
// between-pass sleep (capped by RetryMax). With a 1s hint and a 10ms cap,
// each inter-pass sleep is ~10ms instead of the ~1-2ms base backoff.
func TestDispatchHintFloorsBackoff(t *testing.T) {
	cfg := fastConfig()
	cfg.Rounds = 3 // two sleeps
	c := newTestCoordinator(t, cfg)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	t.Cleanup(ts.Close)
	c.reg.Register("a", ts.URL, Capacity{})

	start := time.Now()
	_, err := c.dispatch(context.Background(), core.Fingerprint{6}, proxyReq{method: "GET", path: "/"})
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("err = %v, want ErrRetriesExhausted", err)
	}
	// Two inter-pass sleeps floored to RetryMax (10ms each). Without the
	// hint they would be ~1-4ms total.
	if el := time.Since(start); el < 18*time.Millisecond {
		t.Errorf("dispatch finished in %v; Retry-After hint did not floor the backoff", el)
	}
}

// TestDispatchHonorsDeadline: a hung worker cannot hang the dispatch —
// the context deadline cuts it short.
func TestDispatchHonorsDeadline(t *testing.T) {
	c := newTestCoordinator(t, fastConfig())
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-time.After(10 * time.Second):
		}
	}))
	t.Cleanup(ts.Close)
	c.reg.Register("hang", ts.URL, Capacity{})

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.dispatch(ctx, core.Fingerprint{7}, proxyReq{method: "GET", path: "/"})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("dispatch hung %v past its deadline", el)
	}
}

func TestParseRetryAfter(t *testing.T) {
	cases := []struct {
		v    string
		want time.Duration
	}{
		{"", 0}, {"3", 3 * time.Second}, {"0", 0}, {"-1", 0}, {"soon", 0},
		{"Wed, 21 Oct 2015 07:28:00 GMT", 0}, // HTTP-date form: not ours, ignored
	}
	for _, tc := range cases {
		h := http.Header{}
		if tc.v != "" {
			h.Set("Retry-After", tc.v)
		}
		if got := parseRetryAfter(h); got != tc.want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", tc.v, got, tc.want)
		}
	}
}
