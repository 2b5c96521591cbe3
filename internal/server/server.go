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
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	hlts "repro"
	"repro/internal/atpg"
	"repro/internal/chaos"
	"repro/internal/core"
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
	// Validate runs the structural invariant checkers inside every job.
	Validate bool
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

	jitterMu sync.Mutex
	jitter   *rand.Rand
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
		jitter: rand.New(rand.NewSource(cfg.RetryJitterSeed)),
	}
	s.mux.HandleFunc("POST /v1/synthesize", s.guarded("synthesize", s.handleSynthesize))
	s.mux.HandleFunc("POST /v1/testdesign", s.guarded("testdesign", s.handleTestDesign))
	s.mux.HandleFunc("GET /v1/table/{bench}", s.guarded("table", s.handleTable))
	s.mux.HandleFunc("GET /store/v1/pull", s.guarded("store.pull", s.handleStorePull))
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /livez", s.handleLivez)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// Handler returns the HTTP handler serving every endpoint.
func (s *Server) Handler() http.Handler { return s.mux }

// Stats returns the server's collector.
func (s *Server) Stats() *stats.Stats { return s.st }

// Snapshot is the utilization view a cluster worker carries in its
// heartbeats (see internal/cluster): the live queue state plus the cache
// effectiveness and work done since boot, all read from the existing
// queue gauges and stats counters.
type Snapshot struct {
	// Queued and Inflight are the current queue depth and the number of
	// distinct in-flight fingerprints.
	Queued   int
	Inflight int
	// QueueDepth and Jobs echo the configured capacity.
	QueueDepth int
	Jobs       int
	// CacheHitRate is hits/(hits+misses) over the LRU; 0 when never
	// consulted.
	CacheHitRate float64
	// StoreHitRate is the persistent store's share, when one is attached.
	StoreHitRate float64
	// JobsRun counts pipeline executions since boot.
	JobsRun int64
	// HasStore reports whether a persistent store is attached; the store
	// fields below are zero without one.
	HasStore bool
	// StoreRecords and StoreLiveBytes summarize the persistent store, and
	// StoreCursor is its end-of-log position — together the replication
	// state a peer needs to judge lag.
	StoreRecords   int
	StoreLiveBytes int64
	StoreCursor    store.Cursor
}

// Snapshot reads the server's live utilization.
func (s *Server) Snapshot() Snapshot {
	queued, inflight := s.q.depth()
	snap := Snapshot{
		Queued:       queued,
		Inflight:     inflight,
		QueueDepth:   s.cfg.QueueDepth,
		Jobs:         s.cfg.Jobs,
		CacheHitRate: s.st.HitRate("server.cache"),
		StoreHitRate: s.st.HitRate("server.store"),
		JobsRun:      s.st.Value("server.jobs.run"),
	}
	if s.cfg.Store != nil {
		st := s.cfg.Store.Stats()
		snap.HasStore = true
		snap.StoreRecords = st.Records
		snap.StoreLiveBytes = st.LiveBytes
		snap.StoreCursor = st.Cursor
	}
	return snap
}

// Drain shuts the server down gracefully: new requests are rejected with
// 503, queued jobs still run, and when ctx expires first the in-flight
// jobs are cancelled so they land StatusPartial results at their next
// budget boundary. Drain returns once every job worker has exited; a
// non-nil error means the deadline forced the degradation path.
func (s *Server) Drain(ctx context.Context) error { return s.q.drain(ctx) }

// guarded wraps a handler with the daemon's last-resort panic recovery:
// a panicking handler answers 500 (best effort) instead of killing the
// connection with an opaque EOF or, worse, relying on net/http's
// per-connection recovery semantics.
func (s *Server) guarded(kind string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				s.st.Add("server.panics", 1)
				err := exec.Recovered("server."+kind, -1, rec)
				body, _ := marshal(errorBody{Error: err.Error()})
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusInternalServerError)
				w.Write(body)
			}
		}()
		h(w, r)
	}
}

// decode parses a JSON request body with decodeStrict. The body is
// hard-capped with http.MaxBytesReader first, so a malicious or buggy
// client cannot stream an unbounded body into the decoder; over-limit
// bodies answer 413.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, kind string, start time.Time, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := decodeStrict(r.Body, v); err != nil {
		status := http.StatusBadRequest
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			status = http.StatusRequestEntityTooLarge
		}
		s.writeError(w, kind, start, status, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

// decodeStrict parses one JSON value; unknown fields are client errors
// (they are always typos — every knob has a default).
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// serveJob is the shared admission + wait path of the three job
// endpoints.
func (s *Server) serveJob(w http.ResponseWriter, r *http.Request, kind string, fp core.Fingerprint, deadlineMS int, run func(ctx context.Context) (int, []byte, bool)) {
	start := time.Now()
	if err := chaos.Step(chaos.SiteServerAccept); err != nil {
		s.setRetryAfter(w)
		s.writeError(w, kind, start, http.StatusServiceUnavailable, err)
		return
	}
	deadline := s.cfg.MaxDeadline
	if d := time.Duration(deadlineMS) * time.Millisecond; d > 0 && d < deadline {
		deadline = d
	}
	j, cached, err := s.q.submit(fp, kind, deadline, run)
	switch {
	case errors.Is(err, ErrQueueFull):
		s.setRetryAfter(w)
		s.writeError(w, kind, start, http.StatusTooManyRequests, err)
		return
	case err != nil: // ErrDraining or an injected enqueue fault
		// 503s carry the same backoff hint as 429s: a draining daemon is
		// typically restarting, so well-behaved clients should retry after
		// the hint rather than hammering or giving up.
		s.setRetryAfter(w)
		s.writeError(w, kind, start, http.StatusServiceUnavailable, err)
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

// setRetryAfter attaches the backoff hint, rounded up to whole seconds;
// every 429 and 503 carries it. The hint is jittered into [RetryAfter,
// 1.5*RetryAfter]: a fixed constant would tell every rejected client to
// come back at the same instant, turning one overload spike into a
// synchronized retry stampede.
func (s *Server) setRetryAfter(w http.ResponseWriter) {
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
}

func (s *Server) retryAfterSeconds() int {
	base := s.cfg.RetryAfter
	s.jitterMu.Lock()
	j := time.Duration(s.jitter.Int63n(int64(base/2) + 1))
	s.jitterMu.Unlock()
	secs := int((base + j + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// write sends a response, firing the respond chaos site and recording
// per-endpoint status-class counters and latency histograms.
func (s *Server) write(w http.ResponseWriter, kind string, start time.Time, status int, body []byte) {
	if err := chaos.Step(chaos.SiteServerRespond); err != nil {
		status = http.StatusInternalServerError
		body, _ = marshal(errorBody{Error: err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
	s.st.Add(fmt.Sprintf("server.http.%s.%dxx", kind, status/100), 1)
	s.st.ObserveSince("server.http."+kind+".latency", start)
}

func (s *Server) writeError(w http.ResponseWriter, kind string, start time.Time, status int, err error) {
	body, _ := marshal(errorBody{Error: err.Error()})
	s.write(w, kind, start, status, body)
}

// clientError classifies job-body errors: typed input errors are the
// client's fault, everything else is a 500.
func errStatus(err error) int {
	if errors.Is(err, hlts.ErrBadWidth) || errors.Is(err, hlts.ErrUnknownBenchmark) || errors.Is(err, hlts.ErrBadGenSpec) {
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

func (s *Server) handleSynthesize(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req SynthesizeRequest
	if !s.decode(w, r, "synthesize", start, &req) {
		return
	}
	n, err := req.Normalize()
	if err != nil {
		s.writeError(w, "synthesize", start, http.StatusBadRequest, err)
		return
	}
	n.Params.Workers = s.inner
	n.Params.Validate = s.cfg.Validate
	n.Params.Stats = s.st
	fp := n.Fingerprint()
	s.serveJob(w, r, "synthesize", fp, req.DeadlineMS, func(ctx context.Context) (int, []byte, bool) {
		res, err := hlts.RunMethodCtx(ctx, n.Method, n.Graph, n.Params)
		if err != nil {
			body, _ := marshal(errorBody{Error: err.Error()})
			return errStatus(err), body, false
		}
		body, err := marshal(BuildSynthesizeResponse(n, res))
		if err != nil {
			body, _ = marshal(errorBody{Error: err.Error()})
			return http.StatusInternalServerError, body, false
		}
		return http.StatusOK, body, res.Status == hlts.StatusComplete
	})
}

func (s *Server) handleTestDesign(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req TestDesignRequest
	if !s.decode(w, r, "testdesign", start, &req) {
		return
	}
	n, err := req.Normalize()
	if err != nil {
		s.writeError(w, "testdesign", start, http.StatusBadRequest, err)
		return
	}
	n.Params.Workers = s.inner
	n.Params.Validate = s.cfg.Validate
	n.Params.Stats = s.st
	fp := n.Fingerprint()
	s.serveJob(w, r, "testdesign", fp, req.DeadlineMS, func(ctx context.Context) (int, []byte, bool) {
		status, body, complete, err := s.runTestDesign(ctx, n)
		if err != nil {
			body, _ := marshal(errorBody{Error: err.Error()})
			return errStatus(err), body, false
		}
		return status, body, complete
	})
}

// runTestDesign is the /v1/testdesign job body: synthesis, optional
// partial-scan selection, netlist generation, the ATPG campaign, and the
// optional BIST session — each stage under the shared job context.
func (s *Server) runTestDesign(ctx context.Context, n *NormTestDesign) (int, []byte, bool, error) {
	res, err := hlts.RunMethodCtx(ctx, n.Method, n.Graph, n.Params)
	if err != nil {
		return 0, nil, false, err
	}
	var scanRegs []int
	if n.Scan > 0 {
		scanRegs, _ = hlts.SelectScanRegisters(res, n.Scan)
	}
	nl, err := hlts.GenerateNetlistWithScan(res, n.Params.Width, n.TestMode, scanRegs)
	if err != nil {
		return 0, nil, false, err
	}
	if s.cfg.Validate {
		if err := hlts.ValidateNetlist(nl); err != nil {
			return 0, nil, false, err
		}
	}
	acfg := hlts.DefaultATPGConfig(n.Seed)
	acfg.SampleFaults = n.Faults
	acfg.Workers = n.Params.Workers
	ares, err := hlts.TestDesignCtx(ctx, nl, acfg)
	if err != nil {
		return 0, nil, false, err
	}
	s.st.Add("atpg.gate_evals", ares.GateEvals)
	var tpg, misr []int
	var bres *atpg.BISTOutcome
	if n.BIST != nil {
		tpg, misr = hlts.SelectBISTRegisters(res, n.BIST.TPG, n.BIST.MISR)
		bn, err := hlts.GenerateNetlistWithBIST(res, n.Params.Width, tpg, misr)
		if err != nil {
			return 0, nil, false, err
		}
		bres, err = hlts.RunBISTCfgCtx(ctx, bn, n.BIST.Faults, n.BIST.Cycles,
			hlts.BISTConfig{Lanes: n.BIST.Lanes})
		if err != nil {
			return 0, nil, false, err
		}
		s.st.Add("atpg.bist_gate_evals", bres.GateEvals)
	}
	body, err := marshal(BuildTestDesignResponse(n, res, nl, scanRegs, ares, tpg, misr, bres))
	if err != nil {
		return 0, nil, false, err
	}
	complete := res.Status == hlts.StatusComplete && ares.Status == hlts.StatusComplete &&
		(bres == nil || bres.Status == hlts.StatusComplete)
	return http.StatusOK, body, complete, nil
}

func (s *Server) handleTable(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	qv := r.URL.Query()
	n, err := NormalizeTable(r.PathValue("bench"), qv.Get("widths"), qv.Get("seed"), qv.Get("faults"))
	if err != nil {
		s.writeError(w, "table", start, errStatusTable(err), err)
		return
	}
	deadlineMS := 0
	if d := qv.Get("deadline_ms"); d != "" {
		deadlineMS, err = strconv.Atoi(d)
		if err != nil || deadlineMS < 0 {
			s.writeError(w, "table", start, http.StatusBadRequest, fmt.Errorf("bad deadline_ms %q", d))
			return
		}
	}
	fp := n.Fingerprint()
	s.serveJob(w, r, "table", fp, deadlineMS, func(ctx context.Context) (int, []byte, bool) {
		cfg := hlts.DefaultExperimentConfig(n.Seed)
		cfg.Widths = n.Widths
		cfg.Workers = s.inner
		cfg.Parallel = 1 // the job IS the unit of concurrency; don't nest
		cfg.Stats = s.st
		cfg.Validate = s.cfg.Validate
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
			body, _ := marshal(errorBody{Error: err.Error()})
			return errStatus(err), body, false
		}
		resp := BuildTableResponse(n, tbl)
		body, err := marshal(resp)
		if err != nil {
			body, _ = marshal(errorBody{Error: err.Error()})
			return http.StatusInternalServerError, body, false
		}
		return http.StatusOK, body, !resp.Partial
	})
}

// errStatusTable maps table-normalization failures: unknown benchmarks
// and bad widths are 404/400 respectively; everything else is 400.
func errStatusTable(err error) int {
	if errors.Is(err, hlts.ErrUnknownBenchmark) {
		return http.StatusNotFound
	}
	return http.StatusBadRequest
}

// handleHealthz is readiness: 200 with queue gauges while accepting,
// 503 once draining.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	queued, inflight := s.q.depth()
	s.q.mu.Lock()
	draining := s.q.draining
	s.q.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	status := http.StatusOK
	state := "ok"
	if draining {
		status = http.StatusServiceUnavailable
		state = "draining"
	}
	w.WriteHeader(status)
	body, _ := marshal(map[string]any{
		"status": state, "queued": queued, "inflight": inflight,
		"queue_depth": s.cfg.QueueDepth,
	})
	w.Write(body)
}

// handleLivez is liveness: 200 while the process serves at all.
func (s *Server) handleLivez(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	body, _ := marshal(map[string]string{"status": "ok"})
	w.Write(body)
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
