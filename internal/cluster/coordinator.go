// coordinator.go is the HTTP front of the cluster: the membership
// endpoints workers talk to (/cluster/v1/register, /cluster/v1/heartbeat,
// /cluster/v1/nodes), the proxied job endpoints clients talk to (the same
// /v1/* surface a single hltsd exposes, so clients cannot tell a
// coordinator from a worker), the health-tracking sweep loop, and the
// drain path.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"sync"
	"time"

	"repro/internal/server"
	"repro/internal/stats"
)

// ErrDraining rejects work because the coordinator is shutting down.
var ErrDraining = errors.New("cluster: coordinator draining")

// Config tunes the coordinator.
type Config struct {
	// HeartbeatInterval is the beat period the coordinator expects of its
	// workers and advertises in registration responses (default 2s).
	HeartbeatInterval time.Duration
	// SuspectBeats is K: a node is Suspect after K consecutive missed
	// beats, i.e. K*HeartbeatInterval without one (default 3).
	SuspectBeats int
	// DeadAfter declares a node Dead after this long without a beat
	// (default 10*HeartbeatInterval).
	DeadAfter time.Duration
	// SweepInterval is the health-tracker tick (default
	// HeartbeatInterval/2).
	SweepInterval time.Duration
	// Rounds is how many full passes over the live ranking a dispatch
	// makes before degrading to 503 (default 4).
	Rounds int
	// RetryBase and RetryMax bound the exponential backoff between passes
	// (defaults 100ms and 2s); the actual sleep is jittered and also
	// honors worker Retry-After hints and the request deadline.
	RetryBase time.Duration
	RetryMax  time.Duration
	// MaxDeadline caps every proxied request end to end, dispatch retries
	// included; request deadline_ms may tighten it (default 2m).
	MaxDeadline time.Duration
	// RetryAfter is the base backoff hint on coordinator 503s, jittered
	// like the worker's (default 1s).
	RetryAfter time.Duration
	// MaxBodyBytes caps every POST body, job and membership traffic alike
	// (default 1 MiB).
	MaxBodyBytes int64
	// Stats receives the coordinator's counters, gauges and latency
	// histograms; a fresh collector is created when nil.
	Stats *stats.Stats
	// Now is the clock (nil = time.Now), injectable for tests.
	Now func() time.Time
	// JitterSeed seeds backoff jitter; 0 derives one from the clock.
	JitterSeed int64
	// Client performs the forwards (nil = a client with sane timeouts).
	Client *http.Client
}

func (c *Config) fill() {
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 2 * time.Second
	}
	if c.SuspectBeats < 1 {
		c.SuspectBeats = 3
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 10 * c.HeartbeatInterval
	}
	if c.SweepInterval <= 0 {
		c.SweepInterval = c.HeartbeatInterval / 2
	}
	if c.Rounds < 1 {
		c.Rounds = 4
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 100 * time.Millisecond
	}
	if c.RetryMax < c.RetryBase {
		c.RetryMax = 2 * time.Second
		if c.RetryMax < c.RetryBase {
			c.RetryMax = c.RetryBase
		}
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 2 * time.Minute
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.Stats == nil {
		c.Stats = stats.New()
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.JitterSeed == 0 {
		c.JitterSeed = c.Now().UnixNano()
	}
	if c.Client == nil {
		// A private transport, not http.DefaultTransport: Drain closes its
		// idle connections without touching the rest of the process.
		c.Client = &http.Client{Transport: &http.Transport{}}
	}
}

// Coordinator fronts a fleet of hltsd workers. Construct with New, serve
// Handler(), and call Drain on shutdown.
type Coordinator struct {
	cfg    Config
	st     *stats.Stats
	reg    *Registry
	client *http.Client
	mux    *http.ServeMux

	jitter *server.Jitter

	baseCtx    context.Context
	baseCancel context.CancelFunc
	inflight   sync.WaitGroup

	mu       sync.Mutex
	draining bool

	stopHealth chan struct{}
	healthDone chan struct{}
}

// New builds a coordinator and starts its health-tracking loop.
func New(cfg Config) *Coordinator {
	cfg.fill()
	ctx, cancel := context.WithCancel(context.Background())
	c := &Coordinator{
		cfg:        cfg,
		st:         cfg.Stats,
		reg:        NewRegistry(time.Duration(cfg.SuspectBeats)*cfg.HeartbeatInterval, cfg.DeadAfter, cfg.Now),
		client:     cfg.Client,
		mux:        http.NewServeMux(),
		jitter:     server.NewJitter(cfg.JitterSeed),
		baseCtx:    ctx,
		baseCancel: cancel,
		stopHealth: make(chan struct{}),
		healthDone: make(chan struct{}),
	}
	c.mux.HandleFunc("POST /cluster/v1/register", server.Guard(c.st, "cluster", "register", c.handleRegister))
	c.mux.HandleFunc("POST /cluster/v1/heartbeat", server.Guard(c.st, "cluster", "heartbeat", c.handleHeartbeat))
	c.mux.HandleFunc("GET /cluster/v1/nodes", server.Guard(c.st, "cluster", "nodes", c.handleNodes))
	for _, ep := range server.Endpoints {
		c.mux.HandleFunc(ep.Pattern, server.Guard(c.st, "cluster", ep.Kind, c.handleJob(ep.Kind)))
	}
	c.mux.HandleFunc("GET /healthz", c.handleHealthz)
	c.mux.HandleFunc("GET /livez", c.handleLivez)
	c.mux.HandleFunc("GET /metrics", c.handleMetrics)
	go c.healthLoop()
	return c
}

// Handler returns the HTTP handler serving every endpoint.
func (c *Coordinator) Handler() http.Handler { return c.mux }

// Registry exposes the membership table (tests and cmd/hltsc logging).
func (c *Coordinator) Registry() *Registry { return c.reg }

// Stats returns the coordinator's collector.
func (c *Coordinator) Stats() *stats.Stats { return c.st }

// healthLoop drives the registry's liveness sweep and publishes the
// per-state node counts as gauges.
func (c *Coordinator) healthLoop() {
	defer close(c.healthDone)
	t := time.NewTicker(c.cfg.SweepInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stopHealth:
			return
		case <-t.C:
			alive, suspect, dead := c.reg.Sweep()
			c.st.Set("cluster.nodes.alive", float64(alive))
			c.st.Set("cluster.nodes.suspect", float64(suspect))
			c.st.Set("cluster.nodes.dead", float64(dead))
			c.st.Set("cluster.replicate.lag", float64(c.replicateLag()))
		}
	}
}

// replicateLag is the record-count spread — max minus min store records
// — across the Alive nodes that report a store in their heartbeats: 0
// when the fleet is converged (or fewer than two stores are visible),
// positive while anti-entropy still owes records to somebody.
func (c *Coordinator) replicateLag() int {
	minR, maxR, n := 0, 0, 0
	for _, node := range c.reg.Nodes() {
		if node.State != StateAlive.String() || node.Util.Store == nil {
			continue
		}
		r := node.Util.Store.Records
		if n == 0 || r < minR {
			minR = r
		}
		if r > maxR {
			maxR = r
		}
		n++
	}
	if n < 2 {
		return 0
	}
	return maxR - minR
}

// Drain shuts the coordinator down: new requests are rejected with 503,
// the health loop stops, in-flight proxied requests are given until ctx
// expires to finish (then their forwards are cancelled so each lands the
// typed 503/partial degradation path), and the registry watchers close.
// Safe to call more than once, including concurrently (the double-SIGTERM
// path): every call waits for the in-flight work to settle.
func (c *Coordinator) Drain(ctx context.Context) error {
	c.mu.Lock()
	first := !c.draining
	c.draining = true
	c.mu.Unlock()
	if first {
		close(c.stopHealth)
	}
	<-c.healthDone

	done := make(chan struct{})
	go func() {
		c.inflight.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		c.baseCancel() // cancel in-flight forwards; dispatch degrades to 503
		<-done
	}
	c.baseCancel()
	c.reg.Close()
	// Release the transport's idle-connection goroutines; workers are not
	// coming back through this coordinator.
	c.client.CloseIdleConnections()
	return err
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if _, status, err := server.ReadJSON(w, r, c.cfg.MaxBodyBytes, &req); err != nil {
		server.WriteError(w, status, err)
		return
	}
	if req.ID == "" || req.Addr == "" {
		server.WriteError(w, http.StatusBadRequest, errors.New("register needs id and addr"))
		return
	}
	if u, err := url.Parse(req.Addr); err != nil || u.Scheme == "" || u.Host == "" {
		server.WriteError(w, http.StatusBadRequest, fmt.Errorf("register addr %q is not an absolute URL", req.Addr))
		return
	}
	if c.isDraining() {
		c.jitter.SetRetryAfter(w, c.cfg.RetryAfter)
		server.WriteError(w, http.StatusServiceUnavailable, ErrDraining)
		return
	}
	c.reg.Register(req.ID, req.Addr, req.Capacity)
	c.st.Add("cluster.registrations", 1)
	server.WriteJSON(w, http.StatusOK, RegisterResponse{Status: "ok", HeartbeatMS: c.cfg.HeartbeatInterval.Milliseconds()})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if _, status, err := server.ReadJSON(w, r, c.cfg.MaxBodyBytes, &req); err != nil {
		server.WriteError(w, status, err)
		return
	}
	if err := c.reg.Heartbeat(req.ID, req.Util); err != nil {
		// 404 tells the agent to re-register — the coordinator may have
		// restarted and lost its membership table.
		server.WriteError(w, http.StatusNotFound, err)
		return
	}
	c.st.Add("cluster.heartbeats", 1)
	server.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (c *Coordinator) handleNodes(w http.ResponseWriter, r *http.Request) {
	server.WriteJSON(w, http.StatusOK, map[string]any{"nodes": c.reg.Nodes()})
}

// handleJob serves one proxied /v1 endpoint. The workers' own edge
// (server.ReadRequest) reads, checks and fingerprints the request, so a
// client error is answered here exactly as a worker would answer it,
// without burning a worker slot. The bytes read then go through the
// dispatch loop verbatim, and the outcome is relayed with per-endpoint
// status classes and latency accounted like the worker daemon does.
func (c *Coordinator) handleJob(kind string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := c.cfg.Now()
		q, status, err := server.ReadRequest(w, r, kind, c.cfg.MaxBodyBytes)
		if err != nil {
			c.writeError(w, kind, start, status, err)
			return
		}
		c.serve(w, r, start, q)
	}
}

// serve runs one checked request through the dispatch loop and relays
// the outcome.
func (c *Coordinator) serve(w http.ResponseWriter, r *http.Request, start time.Time, q *server.Request) {
	kind := q.Kind
	if c.isDraining() {
		c.jitter.SetRetryAfter(w, c.cfg.RetryAfter)
		c.writeError(w, kind, start, http.StatusServiceUnavailable, ErrDraining)
		return
	}
	c.inflight.Add(1)
	defer c.inflight.Done()

	deadline := q.Budget(c.cfg.MaxDeadline)
	// The forward context dies with the client connection, the drain
	// deadline, or the request deadline (plus a grace period so a worker
	// answering a deadline-capped job with a partial payload has time to
	// flush it), whichever comes first.
	ctx, cancel := context.WithTimeout(r.Context(), deadline+5*time.Second)
	defer cancel()
	stop := context.AfterFunc(c.baseCtx, cancel)
	defer stop()

	up, err := c.dispatch(ctx, q.FP, proxyReq{
		method: r.Method, path: r.URL.EscapedPath(), query: r.URL.RawQuery, body: q.Body,
	})
	if err != nil {
		if r.Context().Err() != nil {
			// The client is gone; there is nobody to write to.
			c.st.Add("cluster.requests.dropped", 1)
			return
		}
		// Typed degradation: retry budget or deadline exhausted, or no live
		// workers. Always an answer, never a hung connection.
		c.jitter.SetRetryAfter(w, c.cfg.RetryAfter)
		c.writeError(w, kind, start, http.StatusServiceUnavailable, err)
		return
	}
	for _, h := range []string{"Content-Type", "X-Hlts-Result", "Retry-After"} {
		if v := up.header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set("X-Hlts-Node", up.node)
	w.WriteHeader(up.status)
	w.Write(up.body)
	c.st.Add(fmt.Sprintf("cluster.http.%s.%dxx", kind, up.status/100), 1)
	c.st.ObserveSince("cluster.http."+kind+".latency", start)
}

func (c *Coordinator) isDraining() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.draining
}

// writeError answers a proxied request with a typed error, accounted
// like a relayed answer.
func (c *Coordinator) writeError(w http.ResponseWriter, kind string, start time.Time, status int, err error) {
	server.WriteError(w, status, err)
	c.st.Add(fmt.Sprintf("cluster.http.%s.%dxx", kind, status/100), 1)
	c.st.ObserveSince("cluster.http."+kind+".latency", start)
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	alive, suspect, dead := c.reg.Sweep()
	status, state := http.StatusOK, "ok"
	if c.isDraining() {
		status, state = http.StatusServiceUnavailable, "draining"
	}
	server.WriteJSON(w, status, map[string]any{
		"status": state, "alive": alive, "suspect": suspect, "dead": dead,
	})
}

func (c *Coordinator) handleLivez(w http.ResponseWriter, r *http.Request) {
	server.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	alive, suspect, dead := c.reg.Sweep()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprintf(w, "# TYPE hltsc_nodes_alive gauge\nhltsc_nodes_alive %d\n", alive)
	fmt.Fprintf(w, "# TYPE hltsc_nodes_suspect gauge\nhltsc_nodes_suspect %d\n", suspect)
	fmt.Fprintf(w, "# TYPE hltsc_nodes_dead gauge\nhltsc_nodes_dead %d\n", dead)
	c.st.WriteText(w)
}
