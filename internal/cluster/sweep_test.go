// The cluster chaos sweep — the acceptance test of the fault-tolerant
// deployment: a coordinator fronting two real workers whose handlers are
// wrapped with the cluster.worker.kill site. Across seeds, a worker dies
// abruptly mid-job (listener torn down, in-flight connections severed)
// and later fires abort individual exchanges; the contract is that NO
// acknowledged request is ever lost — every accepted job comes back
// either 200 byte-identical to a direct single-worker computation or as
// a typed 503 with Retry-After, and the drain afterwards leaks nothing.
package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/server"
)

// Killable wraps a worker's handler with the cluster.worker.kill chaos
// site: when the site fires, kill is invoked and the in-flight exchange
// is aborted without a response (http.ErrAbortHandler severs the
// connection) — the observable signature of a node crashing mid-job. The
// sweep's kill tears down the test worker's listener. kill may be invoked
// from concurrent requests and must be idempotent.
func Killable(h http.Handler, kill func()) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, fired := chaos.Fire(chaos.SiteClusterWorkerKill); fired {
			kill()
			panic(http.ErrAbortHandler)
		}
		h.ServeHTTP(w, r)
	})
}

// sweepReq is one workload item; want is the reference body computed by
// an unwrapped worker outside the chaos blast radius.
type sweepReq struct {
	method, path, body string
	want               []byte
}

func clusterSweepWorkload(t *testing.T, ref *httptest.Server) []sweepReq {
	t.Helper()
	reqs := []sweepReq{
		{"POST", "/v1/synthesize", `{"bench":"ex","width":4}`, nil},
		{"POST", "/v1/synthesize", `{"bench":"ex","width":8}`, nil},
		{"POST", "/v1/synthesize", `{"bench":"ex","width":8,"method":"camad"}`, nil},
		{"POST", "/v1/synthesize", `{"bench":"diffeq","width":8}`, nil},
		{"POST", "/v1/testdesign", `{"bench":"ex","width":4,"faults":40}`, nil},
		{"GET", "/v1/table/ex?widths=4&faults=40", "", nil},
	}
	for i := range reqs {
		status, _, body, err := rawReq(ref.Client(), reqs[i].method, ref.URL+reqs[i].path, reqs[i].body)
		if err != nil || status != http.StatusOK {
			t.Fatalf("reference %s %s: status %d err %v", reqs[i].method, reqs[i].path, status, err)
		}
		reqs[i].want = body
	}
	return reqs
}

// TestClusterSweepWorkerKill runs the kill sweep over 8 seeds with 2
// workers under each, asserting zero lost acknowledged requests.
func TestClusterSweepWorkerKill(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster sweep is too slow for -short")
	}

	// The reference worker lives outside the sweep: never wrapped in
	// Killable, never registered, so the armed kill site cannot touch it.
	refSrv := server.New(server.Config{})
	refTS := httptest.NewServer(refSrv.Handler())
	defer func() {
		refTS.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := refSrv.Drain(ctx); err != nil {
			t.Errorf("reference drain: %v", err)
		}
	}()
	workload := clusterSweepWorkload(t, refTS)

	for _, seed := range []int64{1, 2, 3, 5, 8, 13, 21, 34} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runKillSweep(t, seed, workload)
		})
	}
}

func runKillSweep(t *testing.T, seed int64, workload []sweepReq) {
	// Baseline inside the subtest: the subtest's own goroutine and the
	// long-lived reference-worker goroutines are part of it.
	base := runtime.NumGoroutine()
	in := chaos.New(seed).On(chaos.SiteClusterWorkerKill, chaos.Rule{Action: chaos.ActError, Prob: 0.25})
	restore := chaos.Install(in)
	defer restore()

	cfg := fastConfig()
	cfg.Rounds = 6
	cfg.RetryBase = 2 * time.Millisecond
	cfg.RetryMax = 20 * time.Millisecond
	cfg.MaxDeadline = 60 * time.Second
	cfg.JitterSeed = seed
	c := mustNew(t, cfg)
	cts := httptest.NewServer(c.Handler())

	// Two real workers, each killable: the FIRST fire of the kill site
	// tears one down for good (listener closed, in-flight connections
	// severed, heartbeats stopped — a crashed node); later fires abort
	// just their own exchange, a transient the retry loop must absorb.
	type worker struct {
		srv   *server.Server
		ts    *httptest.Server
		agent *Agent
	}
	var killOnce sync.Once
	workers := make([]*worker, 2)
	for i := range workers {
		w := &worker{srv: server.New(server.Config{Jobs: 2, Workers: 4})}
		w.ts = httptest.NewUnstartedServer(nil)
		w.ts.Config.Handler = Killable(w.srv.Handler(), func() {
			killOnce.Do(func() {
				w.ts.Listener.Close()
				w.ts.CloseClientConnections()
				go w.agent.Stop()
			})
		})
		w.ts.Start()
		w.agent = StartAgent(AgentConfig{
			Coordinator: cts.URL,
			ID:          fmt.Sprintf("w%d", i),
			Advertise:   w.ts.URL,
			Capacity:    Capacity{Jobs: 2, Workers: 4, QueueDepth: 64},
			Interval:    25 * time.Millisecond,
		})
		workers[i] = w
	}

	// Both workers registered before load starts.
	deadline := time.Now().Add(10 * time.Second)
	for {
		alive := 0
		for _, n := range c.reg.Nodes() {
			if n.State == "alive" {
				alive++
			}
		}
		if alive == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("workers never registered: %+v", c.reg.Nodes())
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Mixed concurrent load: 4 passes over the workload. Every request
	// must complete with a verdict — 200 byte-identical or typed 503.
	type verdict struct {
		req  sweepReq
		err  error
		code int
		hdr  http.Header
		body []byte
	}
	const passes = 4
	results := make(chan verdict, passes*len(workload))
	var wg sync.WaitGroup
	for p := 0; p < passes; p++ {
		for _, rq := range workload {
			wg.Add(1)
			go func(rq sweepReq) {
				defer wg.Done()
				code, hdr, body, err := rawReq(cts.Client(), rq.method, cts.URL+rq.path, rq.body)
				results <- verdict{rq, err, code, hdr, body}
			}(rq)
		}
	}
	wg.Wait()
	close(results)

	complete, degraded := 0, 0
	for v := range results {
		if v.err != nil {
			// The coordinator is never killed: a transport error to it is a
			// lost acknowledged request.
			t.Errorf("request %s %s dropped: %v", v.req.method, v.req.path, v.err)
			continue
		}
		switch v.code {
		case http.StatusOK:
			complete++
			if string(v.body) != string(v.req.want) {
				t.Errorf("%s %s: body differs from single-worker reference\ngot:  %.160s\nwant: %.160s",
					v.req.method, v.req.path, v.body, v.req.want)
			}
		case http.StatusServiceUnavailable:
			degraded++
			if v.hdr.Get("Retry-After") == "" {
				t.Errorf("%s %s: degraded 503 without Retry-After", v.req.method, v.req.path)
			}
			var eb server.ErrorBody
			if err := json.Unmarshal(v.body, &eb); err != nil || eb.Error == "" {
				t.Errorf("%s %s: degraded 503 not typed: %s", v.req.method, v.req.path, v.body)
			}
		default:
			t.Errorf("%s %s: unexpected status %d: %.200s", v.req.method, v.req.path, v.code, v.body)
		}
	}
	if complete == 0 {
		t.Error("no request completed — the failover path never carried a job")
	}
	if in.Fired(chaos.SiteClusterWorkerKill) == 0 {
		t.Errorf("kill site never fired over %d hits — the sweep tested nothing", in.Hits(chaos.SiteClusterWorkerKill))
	}
	t.Logf("seed=%d: %d complete, %d degraded, kill site hits=%d fired=%d",
		seed, complete, degraded, in.Hits(chaos.SiteClusterWorkerKill), in.Fired(chaos.SiteClusterWorkerKill))

	// Full teardown: agents, coordinator, workers — then the goroutine
	// count must return to the pre-sweep baseline.
	for _, w := range workers {
		w.agent.Stop()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c.Drain(ctx); err != nil {
		t.Errorf("coordinator drain: %v", err)
	}
	cts.Close()
	for _, w := range workers {
		w.ts.Close()
		if err := w.srv.Drain(ctx); err != nil {
			t.Errorf("worker drain: %v", err)
		}
	}
	settle(t, base)
}
