// Package server turns the high-level test synthesis library into a
// service: an HTTP JSON API exposing synthesis (/v1/synthesize), netlist
// generation plus ATPG evaluation (/v1/testdesign) and experiment-table
// reproduction (/v1/table/{bench}) as jobs on a bounded queue.
//
// The serving model (DESIGN.md §4f):
//
//   - Admission control: the queue is bounded; at capacity a request is
//     answered 429 with a Retry-After hint instead of growing memory.
//   - Coalescing: requests are fingerprinted with the canonical FNV-128a
//     encoding of internal/core's evaluation cache; N identical in-flight
//     requests share one computation, and completed results are served
//     from a fingerprint-keyed LRU. Synthesis is deterministic, so every
//     requester receives byte-identical bytes whichever path served them.
//   - Deadlines: each job runs under a context capped by the server's
//     MaxDeadline (tightenable per request); a dropped connection cancels
//     its job once the last waiter is gone. Budget exhaustion surfaces as
//     StatusPartial payloads, not errors.
//   - Worker budget: parallel.Split divides the configured goroutine
//     budget between concurrent jobs and the parallelism inside each, so
//     serving concurrency never oversubscribes the per-job fan-out.
//   - Observability: /metrics exposes the stats counters/timers/latency
//     histograms in the Prometheus text format plus queue gauges;
//     /healthz is readiness (503 while draining), /livez is liveness.
//   - Chaos: the server.accept / server.enqueue / server.respond sites
//     extend the fault-injection sweep to the serving layer; an injected
//     fault surfaces as a typed 5xx, never a crashed daemon.
package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	hlts "repro"
	"repro/internal/atpg"
	"repro/internal/chaos"
	"repro/internal/exec"
	"repro/internal/parallel"
	"repro/internal/stats"
	"repro/internal/store"
)

// Config tunes the daemon.
type Config struct {
	// QueueDepth bounds the number of queued-but-unstarted jobs; above
	// it requests are rejected with 429 (default 64).
	QueueDepth int
	// Jobs is the number of jobs run concurrently (default 2).
	Jobs int
	// Workers is the total worker-goroutine budget, divided between
	// concurrent jobs and the parallelism inside each via parallel.Split
	// (0 = one per CPU).
	Workers int
	// MaxDeadline caps every job's computation; requests may tighten it
	// with deadline_ms but never exceed it (default 2m).
	MaxDeadline time.Duration
	// CacheSize is the LRU result-cache capacity in entries (default 128;
	// negative disables caching).
	CacheSize int
	// RetryAfter is the base backoff hint returned with 429/503 responses
	// (default 1s). The emitted value is jittered into [RetryAfter,
	// 1.5*RetryAfter] so a burst of rejected clients does not come back as
	// a synchronized stampede.
	RetryAfter time.Duration
	// RetryJitterSeed seeds the Retry-After jitter; 0 derives one from the
	// clock (tests pin it for determinism).
	RetryJitterSeed int64
	// MaxBodyBytes caps every request body via http.MaxBytesReader;
	// over-limit bodies answer 413 (default 1 MiB).
	MaxBodyBytes int64
	// Store, when non-nil, is the persistent content-addressed result
	// store (see internal/store): the LRU is warmed from it at
	// construction, every StatusComplete result is written through, and
	// submit-time misses consult it before recomputing — so a restarted
	// daemon serves a repeat workload at its prior hit rate. The caller
	// owns the store and closes it after Drain. Store faults degrade to
	// recomputes (counted as server.store.error), never failed requests.
	Store *store.Store
	// Stats receives the server's counters, timers and latency
	// histograms; a fresh collector is created when nil.
	Stats *stats.Stats
}

// Server is the synthesis service. Construct with New, serve Handler(),
// and call Drain on shutdown.
type Server struct {
	cfg   Config
	st    *stats.Stats
	q     *queue
	inner int // per-job worker budget
	mux   *http.ServeMux

	jitter *Jitter
}

// New builds a server and starts its job workers.
func New(cfg Config) *Server {
	if cfg.QueueDepth < 1 {
		cfg.QueueDepth = 64
	}
	if cfg.Jobs < 1 {
		cfg.Jobs = 2
	}
	if cfg.MaxDeadline <= 0 {
		cfg.MaxDeadline = 2 * time.Minute
	}
	if cfg.CacheSize == 0 {
		cfg.CacheSize = 128
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.RetryJitterSeed == 0 {
		cfg.RetryJitterSeed = time.Now().UnixNano()
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.Stats == nil {
		cfg.Stats = stats.New()
	}
	outer, inner := parallel.Split(cfg.Workers, cfg.Jobs)
	s := &Server{
		cfg:    cfg,
		st:     cfg.Stats,
		q:      newQueue(cfg.QueueDepth, outer, cfg.CacheSize, cfg.Stats, cfg.Store),
		inner:  inner,
		mux:    http.NewServeMux(),
		jitter: NewJitter(cfg.RetryJitterSeed),
	}
	for _, ep := range Endpoints {
		s.mux.HandleFunc(ep.Pattern, Guard(s.st, "server", ep.Kind, s.handleJob(ep.Kind)))
	}
	s.mux.HandleFunc("GET /store/v1/pull", Guard(s.st, "server", "store.pull", s.handleStorePull))
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /livez", s.handleLivez)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// Handler returns the HTTP handler serving every endpoint.
func (s *Server) Handler() http.Handler { return s.mux }

// Stats returns the server's collector.
func (s *Server) Stats() *stats.Stats { return s.st }

// Utilization is the live load snapshot a cluster worker's heartbeats
// carry (see internal/cluster), read from the queue gauges and the stats
// counters.
type Utilization struct {
	// Queued and Inflight are the current queue depth and the number of
	// distinct in-flight fingerprints.
	Queued   int `json:"queued"`
	Inflight int `json:"inflight"`
	// CacheHitRate is hits/(hits+misses) over the LRU, in [0,1]; 0 when
	// never consulted.
	CacheHitRate float64 `json:"cache_hit_rate"`
	// JobsRun counts pipeline executions since boot.
	JobsRun int64 `json:"jobs_run"`
	// Store summarizes the persistent store: the replication state a peer
	// or an operator reads off /cluster/v1/nodes to judge lag. Nil without
	// a store.
	Store *StoreUtil `json:"store,omitempty"`
}

// StoreUtil is the replication-relevant store state a heartbeat carries.
// The embedded cursor is the store's end of log; its gen/seg/off fields
// marshal inline, after live_bytes.
type StoreUtil struct {
	Records   int   `json:"records"`
	LiveBytes int64 `json:"live_bytes"`
	store.Cursor
}

// Snapshot reads the server's live utilization.
func (s *Server) Snapshot() Utilization {
	u := Utilization{
		CacheHitRate: s.st.HitRate("server.cache"),
		JobsRun:      s.st.Value("server.jobs.run"),
	}
	u.Queued, u.Inflight = s.q.depth()
	if s.cfg.Store != nil {
		st := s.cfg.Store.Stats()
		u.Store = &StoreUtil{Records: st.Records, LiveBytes: st.LiveBytes, Cursor: st.Cursor}
	}
	return u
}

// Drain shuts the server down gracefully: new requests are rejected with
// 503, queued jobs still run, and when ctx expires first the in-flight
// jobs are cancelled so they land StatusPartial results at their next
// budget boundary. Drain returns once every job worker has exited; a
// non-nil error means the deadline forced the degradation path.
func (s *Server) Drain(ctx context.Context) error { return s.q.drain(ctx) }

// Guard wraps a handler with last-resort panic recovery: a panicking
// handler answers a typed 500 (best effort) and counts in
// <side>.panics, instead of killing the connection with an opaque EOF
// or relying on net/http's per-connection recovery.
func Guard(st *stats.Stats, side, kind string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				st.Add(side+".panics", 1)
				WriteError(w, http.StatusInternalServerError, exec.Recovered(side+"."+kind, -1, rec))
			}
		}()
		h(w, r)
	}
}

// Jitter is a seeded, goroutine-safe source of backoff jitter.
type Jitter struct {
	mu  sync.Mutex
	rng *rand.Rand
}

// NewJitter seeds a jitter source.
func NewJitter(seed int64) *Jitter { return &Jitter{rng: rand.New(rand.NewSource(seed))} }

// Draw returns a uniform duration in [0, d]; 0 when d <= 0.
func (j *Jitter) Draw(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return time.Duration(j.rng.Int63n(int64(d) + 1))
}

// SetRetryAfter attaches the backoff hint every 429 and 503 carries:
// base plus a draw in [0, base/2], rounded up to whole seconds (at least
// 1). A fixed hint would tell every rejected client to come back at the
// same instant, turning one overload spike into a synchronized retry
// stampede.
func (j *Jitter) SetRetryAfter(w http.ResponseWriter, base time.Duration) {
	secs := int((base + j.Draw(base/2) + time.Second - 1) / time.Second)
	w.Header().Set("Retry-After", strconv.Itoa(max(secs, 1)))
}

// handleJob serves one /v1 job endpoint: the shared edge reads, checks
// and fingerprints the request, and its kind picks the job body.
func (s *Server) handleJob(kind string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		q, status, err := ReadRequest(w, r, kind, s.cfg.MaxBodyBytes)
		if err != nil {
			s.writeError(w, kind, start, status, err)
			return
		}
		s.serveJob(w, r, start, q, s.job(q.Norm))
	}
}

// serveJob is the admission + wait path of a job request read at start.
func (s *Server) serveJob(w http.ResponseWriter, r *http.Request, start time.Time, q *Request, run func(ctx context.Context) (int, []byte, bool)) {
	kind := q.Kind
	var j *job
	var cached *result
	err := chaos.Step(chaos.SiteServerAccept)
	if err == nil {
		j, cached, err = s.q.submit(q.FP, kind, q.Budget(s.cfg.MaxDeadline), run)
	}
	if err != nil {
		// A full queue answers 429; draining, or an injected accept or
		// enqueue fault, 503. Both carry the backoff hint: a draining
		// daemon is typically restarting, so well-behaved clients should
		// retry after the hint rather than hammering or giving up.
		status := http.StatusServiceUnavailable
		if errors.Is(err, ErrQueueFull) {
			status = http.StatusTooManyRequests
		}
		s.jitter.SetRetryAfter(w, s.cfg.RetryAfter)
		s.writeError(w, kind, start, status, err)
		return
	}
	if cached != nil {
		w.Header().Set("X-Hlts-Result", "cached")
		s.write(w, kind, start, cached.status, cached.body)
		return
	}
	select {
	case <-j.done:
		s.write(w, kind, start, j.res.status, j.res.body)
	case <-r.Context().Done():
		// The client is gone: detach (cancelling the job if we were its
		// last waiter) and write nothing — there is nobody to write to.
		s.q.detach(j)
		s.st.Add("server.requests.dropped", 1)
	}
}

// write sends a response, firing the respond chaos site and recording
// per-endpoint status-class counters and latency histograms.
func (s *Server) write(w http.ResponseWriter, kind string, start time.Time, status int, body []byte) {
	if err := chaos.Step(chaos.SiteServerRespond); err != nil {
		status, body = http.StatusInternalServerError, errorJSON(err)
	}
	writeBody(w, status, body)
	s.st.Add(fmt.Sprintf("server.http.%s.%dxx", kind, status/100), 1)
	s.st.ObserveSince("server.http."+kind+".latency", start)
}

func (s *Server) writeError(w http.ResponseWriter, kind string, start time.Time, status int, err error) {
	s.write(w, kind, start, status, errorJSON(err))
}

// errStatus classifies job-body errors: typed input errors are the
// client's fault, everything else is a 500.
func errStatus(err error) int {
	if errors.Is(err, hlts.ErrBadWidth) || errors.Is(err, hlts.ErrUnknownBenchmark) || errors.Is(err, hlts.ErrBadGenSpec) {
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

// job is the job body of a normalized request, picked by its type.
func (s *Server) job(norm any) func(ctx context.Context) (int, []byte, bool) {
	var run func(ctx context.Context) (resp any, complete bool, err error)
	switch n := norm.(type) {
	case *NormSynthesize:
		n.Params.Workers, n.Params.Stats = s.inner, s.st
		run = func(ctx context.Context) (any, bool, error) {
			res, err := hlts.RunMethodCtx(ctx, n.Method, n.Graph, n.Params)
			if err != nil {
				return nil, false, err
			}
			return BuildSynthesizeResponse(n, res), res.Status == hlts.StatusComplete, nil
		}
	case *NormTestDesign:
		n.Params.Workers, n.Params.Stats = s.inner, s.st
		run = func(ctx context.Context) (any, bool, error) { return s.runTestDesign(ctx, n) }
	case *NormTable:
		run = func(ctx context.Context) (any, bool, error) { return s.runTable(ctx, n) }
	}
	return func(ctx context.Context) (int, []byte, bool) {
		resp, complete, err := run(ctx)
		if err != nil {
			return errStatus(err), errorJSON(err), false
		}
		body, err := marshal(resp)
		if err != nil {
			return http.StatusInternalServerError, errorJSON(err), false
		}
		return http.StatusOK, body, complete
	}
}

// runTestDesign is the /v1/testdesign job body: synthesis, optional
// partial-scan selection, netlist generation, the ATPG campaign, and the
// optional BIST session — each stage under the shared job context.
func (s *Server) runTestDesign(ctx context.Context, n *NormTestDesign) (TestDesignResponse, bool, error) {
	var out TestDesignResponse
	res, err := hlts.RunMethodCtx(ctx, n.Method, n.Graph, n.Params)
	if err != nil {
		return out, false, err
	}
	var scanRegs []int
	if n.Scan > 0 {
		scanRegs, _ = hlts.SelectScanRegisters(res, n.Scan)
	}
	nl, err := hlts.GenerateNetlistWithScan(res, n.Params.Width, n.TestMode, scanRegs)
	if err != nil {
		return out, false, err
	}
	acfg := hlts.DefaultATPGConfig(n.Seed)
	acfg.SampleFaults = n.Faults
	acfg.Workers = n.Params.Workers
	ares, err := hlts.TestDesignCtx(ctx, nl, acfg)
	if err != nil {
		return out, false, err
	}
	s.st.Add("atpg.gate_evals", ares.GateEvals)
	var tpg, misr []int
	var bres *atpg.BISTOutcome
	if n.BIST != nil {
		tpg, misr = hlts.SelectBISTRegisters(res, n.BIST.TPG, n.BIST.MISR)
		bn, err := hlts.GenerateNetlistWithBIST(res, n.Params.Width, tpg, misr)
		if err != nil {
			return out, false, err
		}
		bres, err = hlts.RunBISTCfgCtx(ctx, bn, n.BIST.Faults, n.BIST.Cycles,
			hlts.BISTConfig{Lanes: n.BIST.Lanes})
		if err != nil {
			return out, false, err
		}
		s.st.Add("atpg.bist_gate_evals", bres.GateEvals)
	}
	complete := res.Status == hlts.StatusComplete && ares.Status == hlts.StatusComplete &&
		(bres == nil || bres.Status == hlts.StatusComplete)
	return BuildTestDesignResponse(n, res, nl, scanRegs, ares, tpg, misr, bres), complete, nil
}

// runTable is the /v1/table job body: the experiment table at the
// request's widths, seed and fault sample.
func (s *Server) runTable(ctx context.Context, n *NormTable) (TableResponse, bool, error) {
	cfg := hlts.DefaultExperimentConfig(n.Seed)
	cfg.Widths = n.Widths
	cfg.Workers = s.inner
	cfg.Stats = s.st
	baseATPG := cfg.ATPGFor
	cfg.ATPGFor = func(width int) hlts.ATPGConfig {
		c := baseATPG(width)
		if n.Faults > 0 && n.Faults < c.SampleFaults {
			c.SampleFaults = n.Faults
		}
		return c
	}
	tbl, err := hlts.ReproduceTableCtx(ctx, n.Bench, cfg)
	if err != nil {
		return TableResponse{}, false, err
	}
	resp := BuildTableResponse(n, tbl)
	return resp, !resp.Partial, nil
}

// handleHealthz is readiness: 200 with queue gauges while accepting,
// 503 once draining.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	queued, inflight := s.q.depth()
	s.q.mu.Lock()
	draining := s.q.draining
	s.q.mu.Unlock()
	status, state := http.StatusOK, "ok"
	if draining {
		status, state = http.StatusServiceUnavailable, "draining"
	}
	WriteJSON(w, status, map[string]any{
		"status": state, "queued": queued, "inflight": inflight,
		"queue_depth": s.cfg.QueueDepth,
	})
}

// handleLivez is liveness: 200 while the process serves at all.
func (s *Server) handleLivez(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleMetrics exposes queue gauges plus every stats counter, timer and
// latency histogram in the Prometheus text format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	queued, inflight := s.q.depth()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprintf(w, "# TYPE hlts_server_queue_queued gauge\nhlts_server_queue_queued %d\n", queued)
	fmt.Fprintf(w, "# TYPE hlts_server_queue_capacity gauge\nhlts_server_queue_capacity %d\n", s.cfg.QueueDepth)
	fmt.Fprintf(w, "# TYPE hlts_server_inflight_jobs gauge\nhlts_server_inflight_jobs %d\n", inflight)
	if s.cfg.Store != nil {
		st := s.cfg.Store.Stats()
		fmt.Fprintf(w, "# TYPE hlts_server_store_records gauge\nhlts_server_store_records %d\n", st.Records)
		fmt.Fprintf(w, "# TYPE hlts_server_store_live_bytes gauge\nhlts_server_store_live_bytes %d\n", st.LiveBytes)
		fmt.Fprintf(w, "# TYPE hlts_server_store_dead_bytes gauge\nhlts_server_store_dead_bytes %d\n", st.DeadBytes)
		fmt.Fprintf(w, "# TYPE hlts_server_store_corrupt_dropped counter\nhlts_server_store_corrupt_dropped %d\n", st.DroppedCorrupt)
		fmt.Fprintf(w, "# TYPE hlts_server_store_torn_resealed counter\nhlts_server_store_torn_resealed %d\n", st.TornResealed)
	}
	s.st.WriteText(w)
}
