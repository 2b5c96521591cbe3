package cluster

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/store"
)

// testWorker is a real hltsd serving stack mounted as a cluster worker.
type testWorker struct {
	srv *server.Server
	ts  *httptest.Server
}

func newWorker(t *testing.T, cfg server.Config) *testWorker {
	t.Helper()
	srv := server.New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			t.Errorf("worker drain: %v", err)
		}
	})
	return &testWorker{srv: srv, ts: ts}
}

// rawReq performs one request without failing the test on error, so it
// is safe from helper goroutines.
func rawReq(client *http.Client, method, url, body string) (int, http.Header, []byte, error) {
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, resp.Header, payload, err
	}
	return resp.StatusCode, resp.Header, payload, nil
}

func doReq(t *testing.T, client *http.Client, method, url, body string) (int, http.Header, []byte) {
	t.Helper()
	status, hdr, payload, err := rawReq(client, method, url, body)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	return status, hdr, payload
}

// settle asserts the goroutine count returns to the baseline — the
// no-leak half of the drain contract, mirroring the server suite.
func settle(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines leaked (%d > baseline %d)\n%s", runtime.NumGoroutine(), base, buf[:n])
}

// TestCoordinatorProxiesByteIdentical: a client talking to the
// coordinator gets byte-for-byte what it would get from a worker
// directly, on every proxied endpoint — the cluster layer is invisible
// in the payload.
func TestCoordinatorProxiesByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("proxy integration test is too slow for -short")
	}
	ref := newWorker(t, server.Config{})
	w1 := newWorker(t, server.Config{})
	w2 := newWorker(t, server.Config{})

	// Liveness timing is not under test here: give the directly-registered
	// (agent-less) workers a window no subtest will outlive.
	cfg := fastConfig()
	cfg.HeartbeatInterval = 10 * time.Second
	cfg.DeadAfter = 10 * time.Minute
	c := newTestCoordinator(t, cfg)
	c.reg.Register("w1", w1.ts.URL, Capacity{Jobs: 2, QueueDepth: 64})
	c.reg.Register("w2", w2.ts.URL, Capacity{Jobs: 2, QueueDepth: 64})
	cts := httptest.NewServer(c.Handler())
	t.Cleanup(cts.Close)

	cases := []struct {
		name, method, path, body string
	}{
		{"synthesize", "POST", "/v1/synthesize", `{"bench":"ex","width":4}`},
		{"synthesize-camad", "POST", "/v1/synthesize", `{"bench":"ex","width":8,"method":"camad"}`},
		{"testdesign", "POST", "/v1/testdesign", `{"bench":"ex","width":4,"faults":60}`},
		{"table", "GET", "/v1/table/ex?widths=4&faults=60", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, want := doReq(t, ref.ts.Client(), tc.method, ref.ts.URL+tc.path, tc.body)
			status, hdr, got := doReq(t, cts.Client(), tc.method, cts.URL+tc.path, tc.body)
			if status != http.StatusOK {
				t.Fatalf("status %d: %s", status, got)
			}
			if string(got) != string(want) {
				t.Fatalf("proxied body differs from direct worker body:\nproxied: %.200s\ndirect:  %.200s", got, want)
			}
			if node := hdr.Get("X-Hlts-Node"); node != "w1" && node != "w2" {
				t.Errorf("X-Hlts-Node = %q, want w1 or w2", node)
			}
		})
	}
}

// TestCoordinatorEdgeValidation: client errors are answered at the edge
// (bad JSON 400, oversized body 413, bad registration 400, unknown
// heartbeat 404), every /v1 one with the status and bytes a drained hltsd
// answers it with, and a cluster with no workers degrades to a typed 503
// with Retry-After — never a hang. Besides its own rows it sends every
// row of internal/server/testdata/client_errors.tsv.
func TestCoordinatorEdgeValidation(t *testing.T) {
	cfg := fastConfig()
	cfg.MaxBodyBytes = 256
	c := newTestCoordinator(t, cfg)
	cts := httptest.NewServer(c.Handler())
	t.Cleanup(cts.Close)
	cl := cts.Client()
	// The reference worker has the same body cap and is drained, so no
	// request it accepts runs a job.
	ref := newWorker(t, server.Config{MaxBodyBytes: cfg.MaxBodyBytes})
	if err := ref.srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	type row struct {
		name, method, path, body string
		want                     int
	}
	check := func(t *testing.T, tc row) {
		status, hdr, body := doReq(t, cl, tc.method, cts.URL+tc.path, tc.body)
		if status != tc.want {
			t.Fatalf("status %d, want %d (%s)", status, tc.want, body)
		}
		var eb server.ErrorBody
		if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
			t.Fatalf("error payload not typed: %s", body)
		}
		if !strings.HasPrefix(tc.path, "/v1/") {
			return
		}
		refStatus, refHdr, refBody := doReq(t, ref.ts.Client(), tc.method, ref.ts.URL+tc.path, tc.body)
		if refStatus != status || string(refBody) != string(body) || refHdr.Get("Content-Type") != hdr.Get("Content-Type") {
			t.Fatalf("hltsc answered %d %q %s, hltsd %d %q %s",
				status, hdr.Get("Content-Type"), body, refStatus, refHdr.Get("Content-Type"), refBody)
		}
	}
	for _, tc := range []row{
		{"bad json", "POST", "/v1/synthesize", `{"bench":`, 400},
		{"unknown field", "POST", "/v1/synthesize", `{"bench":"ex","width":4,"bogus":1}`, 400},
		{"bad bench", "POST", "/v1/synthesize", `{"bench":"nope","width":4}`, 400},
		{"oversized body", "POST", "/v1/synthesize", `{"vhdl":"` + strings.Repeat("x", 512) + `"}`, 413},
		{"register no addr", "POST", "/cluster/v1/register", `{"id":"a"}`, 400},
		{"register relative addr", "POST", "/cluster/v1/register", `{"id":"a","addr":"nowhere"}`, 400},
		{"heartbeat unknown", "POST", "/cluster/v1/heartbeat", `{"id":"ghost"}`, 404},
		{"bad table deadline", "GET", "/v1/table/ex?deadline_ms=-5", "", 400},
	} {
		t.Run(tc.name, func(t *testing.T) { check(t, tc) })
	}
	data, err := os.ReadFile("../server/testdata/client_errors.tsv")
	if err != nil {
		t.Fatal(err)
	}
	t.Run("client errors", func(t *testing.T) {
		for _, line := range strings.Split(string(data), "\n") {
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			f := strings.Split(line, "\t")
			if len(f) != 5 {
				t.Fatalf("client_errors.tsv: %d fields in %q, want 5", len(f), line)
			}
			want, err := strconv.Atoi(f[3])
			if err != nil {
				t.Fatalf("client_errors.tsv: status %q: %v", f[3], err)
			}
			tc := row{name: f[0], method: f[1], path: f[2], want: want, body: f[4]}
			t.Run(tc.name, func(t *testing.T) { check(t, tc) })
		}
	})

	// A valid job with no workers registered: typed 503 + Retry-After.
	status, hdr, body := doReq(t, cl, "POST", cts.URL+"/v1/synthesize", `{"bench":"ex","width":4}`)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("no-workers status %d, want 503 (%s)", status, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("no-workers 503 missing Retry-After")
	}
	var eb server.ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil || !strings.Contains(eb.Error, "no live workers") {
		t.Errorf("no-workers error not typed: %s", body)
	}
}

// TestCoordinatorDrain is the shutdown contract: concurrent double Drain
// (the double-SIGTERM path) returns on both calls, the in-flight proxied
// job held past the drain deadline is answered a typed 503 (never hung),
// new work is rejected 503 while draining, registry watchers close, and
// no goroutine outlives the drain.
func TestCoordinatorDrain(t *testing.T) {
	base := runtime.NumGoroutine()

	c := mustNew(t, fastConfig())
	events := c.Registry().Watch()

	release := make(chan struct{})
	started := make(chan struct{}, 4)
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		started <- struct{}{}
		select {
		case <-release:
			w.Write([]byte("late"))
		case <-r.Context().Done():
		}
	}))
	c.reg.Register("slow", slow.URL, Capacity{})
	cts := httptest.NewServer(c.Handler())

	// Hold one proxied job in flight on the blocking worker.
	type answer struct {
		status int
		hdr    http.Header
		err    error
	}
	got := make(chan answer, 1)
	go func() {
		status, hdr, _, err := rawReq(cts.Client(), "POST", cts.URL+"/v1/synthesize", `{"bench":"ex","width":4}`)
		got <- answer{status, hdr, err}
	}()
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("proxied request never reached the worker")
	}

	// Concurrent double drain under a deadline the held job will blow.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = c.Drain(ctx)
		}(i)
	}
	wg.Wait()
	if errs[0] == nil && errs[1] == nil {
		t.Error("drain under a blown deadline reported success from both calls")
	}

	// The held request was answered — a typed 503 with Retry-After, not a
	// hung connection.
	select {
	case a := <-got:
		if a.err != nil {
			t.Fatalf("held request errored instead of degrading: %v", a.err)
		}
		if a.status != http.StatusServiceUnavailable {
			t.Errorf("held request answered %d, want 503", a.status)
		}
		if a.hdr.Get("Retry-After") == "" {
			t.Error("degraded 503 missing Retry-After")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("held request hung through the drain")
	}

	// New work while drained: immediate 503.
	status, hdr, _ := doReq(t, cts.Client(), "POST", cts.URL+"/v1/synthesize", `{"bench":"ex","width":4}`)
	if status != http.StatusServiceUnavailable || hdr.Get("Retry-After") == "" {
		t.Errorf("post-drain request: status %d, Retry-After %q", status, hdr.Get("Retry-After"))
	}
	// Registration while drained: also 503.
	status, _, _ = doReq(t, cts.Client(), "POST", cts.URL+"/cluster/v1/register", `{"id":"x","addr":"http://127.0.0.1:1"}`)
	if status != http.StatusServiceUnavailable {
		t.Errorf("post-drain register: status %d, want 503", status)
	}

	// Watcher channels are closed by the drain (drain the buffered
	// transition events first).
	closed := false
	for !closed {
		select {
		case _, open := <-events:
			closed = !open
		case <-time.After(5 * time.Second):
			t.Fatal("watcher channel not closed by drain")
		}
	}

	close(release)
	slow.Close()
	cts.Close()
	settle(t, base)
}

// TestClusterStoreResume: two workers sharing a persistent result store.
// Worker A computes a job and dies; the identical retried request fails
// over to worker B, which serves it from the shared durable state —
// byte-identical, without recomputing.
func TestClusterStoreResume(t *testing.T) {
	if testing.Short() {
		t.Skip("store-resume integration test is too slow for -short")
	}
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })

	body := `{"bench":"ex","width":4}`
	// Steer the fingerprint's rendezvous owner to worker A so the retry
	// genuinely exercises the failover path, not just placement luck.
	var req server.SynthesizeRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	n, err := req.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	fp := n.Fingerprint()
	idA, idB := "worker-a", "worker-b"
	if Rank(fp, []string{idA, idB})[0] != idA {
		idA, idB = idB, idA
	}

	c := newTestCoordinator(t, fastConfig())
	cts := httptest.NewServer(c.Handler())
	t.Cleanup(cts.Close)

	// Worker A computes the job once; the result lands in the store.
	srvA := server.New(server.Config{Store: st})
	tsA := httptest.NewServer(srvA.Handler())
	c.reg.Register(idA, tsA.URL, Capacity{})
	status, _, first := doReq(t, cts.Client(), "POST", cts.URL+"/v1/synthesize", body)
	if status != http.StatusOK {
		t.Fatalf("first request: status %d (%s)", status, first)
	}
	if runs := srvA.Stats().Value("server.jobs.run"); runs != 1 {
		t.Fatalf("worker A ran %d jobs, want 1", runs)
	}

	// A dies mid-life: listener gone, its durable state survives.
	tsA.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srvA.Drain(ctx); err != nil {
		t.Fatalf("drain A: %v", err)
	}

	// B boots against the same store and registers; the retried request
	// fails over to it and is served from durable state — byte-identical,
	// zero recomputation.
	wB := newWorker(t, server.Config{Store: st})
	c.reg.Register(idB, wB.ts.URL, Capacity{})
	status, hdr, second := doReq(t, cts.Client(), "POST", cts.URL+"/v1/synthesize", body)
	if status != http.StatusOK {
		t.Fatalf("retried request: status %d (%s)", status, second)
	}
	if string(second) != string(first) {
		t.Fatalf("resumed answer differs from original:\nfirst:  %.200s\nsecond: %.200s", first, second)
	}
	if node := hdr.Get("X-Hlts-Node"); node != idB {
		t.Errorf("retried request served by %q, want %q", node, idB)
	}
	if runs := wB.srv.Stats().Value("server.jobs.run"); runs != 0 {
		t.Errorf("worker B recomputed (%d jobs run); want 0 (durable-state resume)", runs)
	}
	// The dead node was demoted by the dispatch failure.
	for _, node := range c.reg.Nodes() {
		if node.ID == idA && node.State == "alive" {
			t.Errorf("dead worker still alive in the registry")
		}
	}
}

// TestAgentLifecycle: the agent registers, beats utilization into the
// registry, and re-registers when the coordinator forgets it (the
// restart path); Stop is idempotent.
func TestAgentLifecycle(t *testing.T) {
	c := newTestCoordinator(t, fastConfig())
	cts := httptest.NewServer(c.Handler())
	t.Cleanup(cts.Close)

	a := StartAgent(AgentConfig{
		Coordinator: cts.URL,
		ID:          "w1",
		Advertise:   "http://127.0.0.1:1",
		Capacity:    Capacity{Jobs: 2, Workers: 4, QueueDepth: 8},
		Interval:    5 * time.Millisecond,
		Snapshot:    func() server.Utilization { return server.Utilization{Queued: 3, Inflight: 1} },
	})
	deadline := time.Now().Add(5 * time.Second)
	seen := false
	for time.Now().Before(deadline) && !seen {
		for _, n := range c.reg.Nodes() {
			if n.ID == "w1" && n.State == "alive" && n.Util.Queued == 3 {
				seen = true
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !seen {
		t.Fatalf("agent never registered + beat utilization: %+v", c.reg.Nodes())
	}
	a.Stop()
	a.Stop() // idempotent
}

// TestAgentAdoptsCoordinatorBeatPeriod: the registration answer's
// heartbeat_ms overrides the agent's configured period, so an agent
// configured to beat hourly beats at the coordinator's 10 ms instead of
// going Suspect between beats.
func TestAgentAdoptsCoordinatorBeatPeriod(t *testing.T) {
	cfg := fastConfig()
	cfg.HeartbeatInterval = 10 * time.Millisecond
	c := newTestCoordinator(t, cfg)
	cts := httptest.NewServer(c.Handler())
	t.Cleanup(cts.Close)

	st := stats.New()
	a := StartAgent(AgentConfig{
		Coordinator: cts.URL, ID: "w1", Advertise: "http://127.0.0.1:1",
		Interval: time.Hour, Stats: st,
	})
	defer a.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for st.Value("cluster.agent.beats") < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("%d beats in 5s: the agent kept its configured hourly period", st.Value("cluster.agent.beats"))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestAgentReRegistersAfter404: a heartbeat answered 404 (the coordinator
// restarted and lost its table) triggers re-registration on the next
// tick.
func TestAgentReRegistersAfter404(t *testing.T) {
	var regs, beats atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /cluster/v1/register", func(w http.ResponseWriter, r *http.Request) {
		regs.Add(1)
		server.WriteJSON(w, http.StatusOK, RegisterResponse{Status: "ok"})
	})
	mux.HandleFunc("POST /cluster/v1/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		beats.Add(1)
		server.WriteJSON(w, http.StatusNotFound, server.ErrorBody{Error: ErrUnknownNode.Error()})
	})
	mock := httptest.NewServer(mux)
	t.Cleanup(mock.Close)

	a := StartAgent(AgentConfig{
		Coordinator: mock.URL, ID: "w1", Advertise: "http://127.0.0.1:1",
		Interval: 5 * time.Millisecond,
	})
	defer a.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if regs.Load() >= 2 && beats.Load() >= 1 {
			return // registered, beat 404'd, re-registered: the loop self-heals
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("agent did not re-register after 404 (regs=%d beats=%d)", regs.Load(), beats.Load())
}

// TestKillable: when the cluster.worker.kill site fires, the kill hook
// runs and the exchange is aborted without a response — the client sees
// a severed connection, exactly what a crashing node looks like.
func TestKillable(t *testing.T) {
	in := chaos.New(1).On(chaos.SiteClusterWorkerKill, chaos.Rule{Action: chaos.ActError})
	restore := chaos.Install(in)
	defer restore()

	var killed atomic.Int64
	ts := httptest.NewServer(Killable(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("alive"))
	}), func() { killed.Add(1) }))
	t.Cleanup(ts.Close)

	resp, err := ts.Client().Get(ts.URL)
	if err == nil {
		resp.Body.Close()
		t.Fatalf("killed worker answered %d; want a severed connection", resp.StatusCode)
	}
	if killed.Load() != 1 {
		t.Fatalf("kill hook ran %d times, want 1", killed.Load())
	}
	if in.Fired(chaos.SiteClusterWorkerKill) != 1 {
		t.Fatalf("site fired %d times, want 1", in.Fired(chaos.SiteClusterWorkerKill))
	}
}
