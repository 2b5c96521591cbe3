// The serving-layer contract tests:
//
//   - every endpoint's payload is byte-identical to what the library
//     facade computes directly (the queue, coalescing and cache must be
//     invisible in the body),
//   - under a 200-request concurrent mixed load the core pipeline runs
//     exactly once per unique fingerprint (provable coalescing),
//   - admission control answers 429 + Retry-After deterministically at
//     capacity and 503 while draining,
//   - a dropped connection cancels its job once the last waiter is gone,
//   - drain under an expired deadline degrades in-flight jobs to partial
//     results, and no goroutine outlives the drain.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	hlts "repro"
	"repro/internal/atpg"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/stats"
)

// directSynthesize computes the expected /v1/synthesize payload through
// the library facade, bypassing the serving layer entirely.
func directSynthesize(t testing.TB, req SynthesizeRequest) []byte {
	t.Helper()
	n, err := req.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	res, err := hlts.RunMethodCtx(context.Background(), n.Method, n.Graph, n.Params)
	if err != nil {
		t.Fatal(err)
	}
	body, err := marshal(BuildSynthesizeResponse(n, res))
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// directTestDesign mirrors the /v1/testdesign job body through the
// facade.
func directTestDesign(t testing.TB, req TestDesignRequest) []byte {
	t.Helper()
	n, err := req.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	res, err := hlts.RunMethodCtx(context.Background(), n.Method, n.Graph, n.Params)
	if err != nil {
		t.Fatal(err)
	}
	var scanRegs []int
	if n.Scan > 0 {
		scanRegs, _ = hlts.SelectScanRegisters(res, n.Scan)
	}
	nl, err := hlts.GenerateNetlistWithScan(res, n.Params.Width, n.TestMode, scanRegs)
	if err != nil {
		t.Fatal(err)
	}
	acfg := hlts.DefaultATPGConfig(n.Seed)
	acfg.SampleFaults = n.Faults
	ares, err := hlts.TestDesignCtx(context.Background(), nl, acfg)
	if err != nil {
		t.Fatal(err)
	}
	var tpg, misr []int
	var bres *atpg.BISTOutcome
	if b := n.BIST; b != nil {
		tpg, misr = hlts.SelectBISTRegisters(res, b.TPG, b.MISR)
		bn, err := hlts.GenerateNetlistWithBIST(res, n.Params.Width, tpg, misr)
		if err != nil {
			t.Fatal(err)
		}
		bres, err = hlts.RunBISTCfgCtx(context.Background(), bn, b.Faults, b.Cycles, hlts.BISTConfig{Lanes: b.Lanes})
		if err != nil {
			t.Fatal(err)
		}
	}
	body, err := marshal(BuildTestDesignResponse(n, res, nl, scanRegs, ares, tpg, misr, bres))
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// directTable mirrors the /v1/table job body through the facade.
func directTable(t testing.TB, bench, widths, seed, faults string) []byte {
	t.Helper()
	n, err := NormalizeTable(bench, widths, seed, faults)
	if err != nil {
		t.Fatal(err)
	}
	cfg := hlts.DefaultExperimentConfig(n.Seed)
	cfg.Widths = n.Widths
	cfg.CapFaults(n.Faults)
	tbl, err := hlts.ReproduceTableCtx(context.Background(), n.Bench, cfg)
	if err != nil {
		t.Fatal(err)
	}
	body, err := marshal(BuildTableResponse(n, tbl))
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func post(t testing.TB, client *http.Client, url, body string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := client.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, resp.Header, payload
}

func get(t testing.TB, client *http.Client, url string) (int, []byte) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, payload
}

// settle asserts the goroutine count returns to the baseline after a
// drain — the no-leak half of the shutdown contract.
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

func drainAndSettle(t *testing.T, s *Server, base int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	settle(t, base)
}

// TestLoadMixedByteIdentical is the acceptance load test: 200 concurrent
// requests spread over nine unique fingerprints across all three job
// endpoints (test designs plain, with scan, in test mode and with BIST). Every response must be byte-identical to the corresponding
// direct library computation, the core pipeline must have run exactly
// once per unique fingerprint (the coalescing + cache proof), and the
// drain afterwards must leak nothing.
func TestLoadMixedByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("load test is too slow for -short")
	}
	type reqSpec struct {
		method, path, body string
		want               []byte
	}
	ex4 := SynthesizeRequest{Bench: "ex", Width: 4}
	specs := []reqSpec{
		{"POST", "/v1/synthesize", `{"bench":"ex","width":4}`,
			directSynthesize(t, SynthesizeRequest{Bench: "ex", Width: 4})},
		{"POST", "/v1/synthesize", `{"bench":"ex","width":8,"method":"camad"}`,
			directSynthesize(t, SynthesizeRequest{Bench: "ex", Width: 8, Method: hlts.MethodCAMAD})},
		{"POST", "/v1/synthesize", `{"bench":"tseng","width":4}`,
			directSynthesize(t, SynthesizeRequest{Bench: "tseng", Width: 4})},
		{"POST", "/v1/synthesize", `{"bench":"diffeq","width":4}`,
			directSynthesize(t, SynthesizeRequest{Bench: "diffeq", Width: 4})},
		{"POST", "/v1/testdesign", `{"bench":"ex","width":4,"faults":120}`,
			directTestDesign(t, TestDesignRequest{SynthesizeRequest: ex4, Faults: 120})},
		{"POST", "/v1/testdesign", `{"bench":"ex","width":4,"faults":120,"scan":2}`,
			directTestDesign(t, TestDesignRequest{SynthesizeRequest: ex4, Faults: 120, Scan: 2})},
		{"POST", "/v1/testdesign", `{"bench":"ex","width":4,"faults":120,"test_mode":true}`,
			directTestDesign(t, TestDesignRequest{SynthesizeRequest: ex4, Faults: 120, TestMode: true})},
		{"POST", "/v1/testdesign", `{"bench":"ex","width":4,"faults":120,"bist":{"tpg":2,"misr":2}}`,
			directTestDesign(t, TestDesignRequest{SynthesizeRequest: ex4, Faults: 120, BIST: &BISTRequest{TPG: 2, MISR: 2}})},
		{"GET", "/v1/table/ex?widths=4&faults=60", "",
			directTable(t, "ex", "4", "", "60")},
	}

	base := runtime.NumGoroutine()
	st := stats.New()
	s := New(Config{QueueDepth: 256, Jobs: 4, CacheSize: 16, Stats: st})
	ts := httptest.NewServer(s.Handler())
	client := ts.Client()

	const total = 200
	var wg sync.WaitGroup
	errCh := make(chan error, total)
	for i := 0; i < total; i++ {
		spec := specs[i%len(specs)]
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var status int
			var got []byte
			if spec.method == "POST" {
				status, _, got = post(t, client, ts.URL+spec.path, spec.body)
			} else {
				status, got = get(t, client, ts.URL+spec.path)
			}
			if status != http.StatusOK {
				errCh <- fmt.Errorf("request %d (%s): status %d: %s", i, spec.path, status, got)
				return
			}
			if !bytes.Equal(got, spec.want) {
				errCh <- fmt.Errorf("request %d (%s): payload differs from direct computation:\n got %s\nwant %s", i, spec.path, got, spec.want)
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	// Provable coalescing: the pipeline ran exactly once per unique
	// fingerprint, and every other request was served by attaching to an
	// in-flight job or from the cache.
	if runs := st.Value("server.jobs.run"); runs != int64(len(specs)) {
		t.Errorf("core pipeline ran %d times for %d unique fingerprints", runs, len(specs))
	}
	shared := st.Value("server.coalesce.hit") + st.Value("server.cache.hit")
	if shared != total-int64(len(specs)) {
		t.Errorf("coalesce+cache served %d requests, want %d", shared, total-len(specs))
	}
	if dropped := st.Value("server.requests.dropped"); dropped != 0 {
		t.Errorf("%d requests dropped", dropped)
	}

	ts.Close()
	client.CloseIdleConnections()
	drainAndSettle(t, s, base)
}

// TestCachedRequestServed: a repeated identical request is answered from
// the result cache, byte-identically, with the cache marker header.
func TestCachedRequestServed(t *testing.T) {
	base := runtime.NumGoroutine()
	st := stats.New()
	s := New(Config{QueueDepth: 8, Jobs: 1, CacheSize: 8, Stats: st})
	ts := httptest.NewServer(s.Handler())
	body := `{"bench":"ex","width":4}`
	_, h1, first := post(t, ts.Client(), ts.URL+"/v1/synthesize", body)
	if h1.Get("X-Hlts-Result") != "" {
		t.Errorf("first response marked %q", h1.Get("X-Hlts-Result"))
	}
	_, h2, second := post(t, ts.Client(), ts.URL+"/v1/synthesize", body)
	if h2.Get("X-Hlts-Result") != "cached" {
		t.Errorf("second response not served from cache (header %q)", h2.Get("X-Hlts-Result"))
	}
	if !bytes.Equal(first, second) {
		t.Errorf("cached response differs:\n%s\n%s", first, second)
	}
	if hits := st.Value("server.cache.hit"); hits != 1 {
		t.Errorf("cache hits = %d, want 1", hits)
	}
	ts.Close()
	drainAndSettle(t, s, base)
}

// blockingJob is a controllable job body for queue-level tests.
func blockingJob(started, release chan struct{}) func(ctx context.Context) (int, []byte, bool) {
	return func(ctx context.Context) (int, []byte, bool) {
		if started != nil {
			close(started)
		}
		if release != nil {
			<-release
		}
		return http.StatusOK, []byte("{}\n"), false
	}
}

func fpOf(parts ...string) core.Fingerprint {
	h := core.NewHasher()
	for _, p := range parts {
		h.Str(p)
	}
	return h.Sum()
}

// TestAdmissionControl exercises the deterministic 429 path: one worker
// occupied, the one queue slot filled, and the next distinct request is
// rejected immediately with Retry-After — while an identical request
// still coalesces without consuming capacity.
func TestAdmissionControl(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New(Config{QueueDepth: 1, Jobs: 1, Workers: 1, CacheSize: -1})

	started := make(chan struct{})
	release := make(chan struct{})
	// Occupy the single worker.
	recA := httptest.NewRecorder()
	reqA := httptest.NewRequest("POST", "/v1/synthesize", nil)
	doneA := make(chan struct{})
	go func() {
		defer close(doneA)
		s.serveJob(recA, reqA, time.Now(), &Request{Kind: KindSynthesize, FP: fpOf("A")}, blockingJob(started, release))
	}()
	<-started
	// Fill the single queue slot directly (submit returns once enqueued).
	jB, _, err := s.q.submit(fpOf("B"), "synthesize", time.Minute, blockingJob(nil, nil))
	if err != nil {
		t.Fatalf("enqueue B: %v", err)
	}
	// A distinct third request must bounce with 429 + Retry-After.
	recC := httptest.NewRecorder()
	s.serveJob(recC, httptest.NewRequest("POST", "/v1/synthesize", nil), time.Now(), &Request{Kind: KindSynthesize, FP: fpOf("C")}, blockingJob(nil, nil))
	if recC.Code != http.StatusTooManyRequests {
		t.Fatalf("overflow request: status %d, want 429", recC.Code)
	}
	if recC.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if !strings.Contains(recC.Body.String(), "queue full") {
		t.Errorf("429 body %q", recC.Body.String())
	}
	// An identical in-flight request coalesces instead of being rejected.
	jA2, cached, err := s.q.submit(fpOf("A"), "synthesize", time.Minute, blockingJob(nil, nil))
	if err != nil || cached != nil {
		t.Fatalf("coalesce onto running job: j=%v cached=%v err=%v", jA2, cached, err)
	}
	if s.st.Value("server.coalesce.hit") != 1 {
		t.Errorf("coalesce.hit = %d", s.st.Value("server.coalesce.hit"))
	}
	if s.st.Value("server.queue.rejected") != 1 {
		t.Errorf("queue.rejected = %d", s.st.Value("server.queue.rejected"))
	}
	close(release)
	<-doneA
	<-jA2.done
	<-jB.done
	if recA.Code != http.StatusOK {
		t.Errorf("blocked request finished with %d", recA.Code)
	}
	drainAndSettle(t, s, base)
}

// TestDroppedConnectionCancelsJob: when the last waiter detaches, the
// job's context is cancelled and the computation stops.
func TestDroppedConnectionCancelsJob(t *testing.T) {
	base := runtime.NumGoroutine()
	st := stats.New()
	q := newQueue(4, 1, -1, st, nil)
	j, _, err := q.submit(fpOf("orphan"), "synthesize", time.Minute, func(ctx context.Context) (int, []byte, bool) {
		<-ctx.Done() // runs until cancelled — the detach must stop it
		return http.StatusOK, []byte("{}\n"), false
	})
	if err != nil {
		t.Fatal(err)
	}
	q.detach(j)
	select {
	case <-j.done:
	case <-time.After(10 * time.Second):
		t.Fatal("orphaned job never finished: detach did not cancel its context")
	}
	if st.Value("server.jobs.orphaned") != 1 {
		t.Errorf("jobs.orphaned = %d", st.Value("server.jobs.orphaned"))
	}
	if err := q.drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	settle(t, base)
}

// TestNoCoalesceOntoDeadJob: a request never joins a job whose context
// is already done — neither one orphaned by its last waiter's detach nor
// one whose deadline expired while it sat in the queue. Joining would
// hand the new request the dead job's partial result as a 200 although
// its own deadline never passed.
func TestNoCoalesceOntoDeadJob(t *testing.T) {
	base := runtime.NumGoroutine()
	st := stats.New()
	q := newQueue(4, 1, -1, st, nil)
	// body finishes complete when released, partial if its context ends first.
	body := func(release chan struct{}) func(ctx context.Context) (int, []byte, bool) {
		return func(ctx context.Context) (int, []byte, bool) {
			select {
			case <-ctx.Done():
				return http.StatusOK, []byte("partial"), false
			case <-release:
				return http.StatusOK, []byte("complete"), true
			}
		}
	}
	submit := func(fp core.Fingerprint, deadline time.Duration, run func(ctx context.Context) (int, []byte, bool)) *job {
		t.Helper()
		j, cached, err := q.submit(fp, "synthesize", deadline, run)
		if err != nil || cached != nil {
			t.Fatalf("submit: cached=%v err=%v", cached, err)
		}
		return j
	}

	// Orphaned: X waits behind a blocked worker, its only waiter leaves,
	// and X is requested again.
	started, releaseW := make(chan struct{}), make(chan struct{})
	w := submit(fpOf("W"), time.Minute, blockingJob(started, releaseW))
	<-started
	x1 := submit(fpOf("X"), time.Minute, body(make(chan struct{})))
	q.detach(x1)
	// detach unlists the orphan under the admission mutex, before it
	// cancels: no submit can reach it in between.
	if _, inflight := q.depth(); inflight != 1 {
		t.Fatalf("in-flight fingerprints after detach = %d, want 1 (the orphan stays listed)", inflight)
	}
	releaseX := make(chan struct{})
	x2 := submit(fpOf("X"), time.Minute, body(releaseX))
	if x2 == x1 {
		t.Fatal("request coalesced onto the orphaned job")
	}
	close(releaseW)
	<-w.done
	<-x1.done
	// The orphaned job's worker must not evict its replacement: a third
	// identical request still coalesces onto x2.
	if x3 := submit(fpOf("X"), time.Minute, body(releaseX)); x3 != x2 {
		t.Fatal("replacement job lost its in-flight entry when the orphan retired")
	}
	close(releaseX)
	<-x2.done
	if string(x2.res.body) != "complete" {
		t.Errorf("resubmitted request got %q, want a complete result", x2.res.body)
	}
	if got := st.Value("server.jobs.orphaned"); got != 1 {
		t.Errorf("jobs.orphaned = %d, want 1", got)
	}

	// Expired: Y's deadline passes while it waits behind a blocked worker;
	// a new request for Y must get a fresh job, not Y's partial result.
	started, releaseW = make(chan struct{}), make(chan struct{})
	w = submit(fpOf("W2"), time.Minute, blockingJob(started, releaseW))
	<-started
	y1 := submit(fpOf("Y"), time.Millisecond, body(make(chan struct{})))
	<-y1.ctx.Done()
	releaseY := make(chan struct{})
	y2 := submit(fpOf("Y"), time.Minute, body(releaseY))
	if y2 == y1 {
		t.Fatal("request coalesced onto a job whose deadline had expired")
	}
	close(releaseW)
	close(releaseY)
	<-y1.done
	<-y2.done
	if string(y1.res.body) != "partial" || string(y2.res.body) != "complete" {
		t.Errorf("expired job got %q, resubmission got %q; want partial and complete", y1.res.body, y2.res.body)
	}
	if err := q.drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	settle(t, base)
}

// TestDrainDegradesToPartial: a drain whose deadline expires cancels the
// in-flight job contexts (jobs land their best-so-far results) and still
// waits for the workers — and a draining queue rejects new work.
func TestDrainDegradesToPartial(t *testing.T) {
	base := runtime.NumGoroutine()
	st := stats.New()
	q := newQueue(4, 1, -1, st, nil)
	started := make(chan struct{})
	j, _, err := q.submit(fpOf("slow"), "table", time.Minute, func(ctx context.Context) (int, []byte, bool) {
		close(started)
		<-ctx.Done() // a long computation that yields at its budget boundary
		return http.StatusOK, []byte(`{"partial":true}` + "\n"), false
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := q.drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain = %v, want deadline exceeded", err)
	}
	<-j.done
	if j.res.status != http.StatusOK || !strings.Contains(string(j.res.body), "partial") {
		t.Errorf("degraded job result: %d %s", j.res.status, j.res.body)
	}
	if _, _, err := q.submit(fpOf("late"), "table", time.Minute, blockingJob(nil, nil)); !errors.Is(err, ErrDraining) {
		t.Errorf("submit while draining = %v, want ErrDraining", err)
	}
	if err := q.drain(context.Background()); err != nil {
		t.Errorf("second drain = %v", err)
	}
	settle(t, base)
}

// TestJobDeadlineProducesPartialPayload: a tight per-request deadline
// surfaces as a 200 StatusPartial payload, which must never enter the
// cache.
func TestJobDeadlineProducesPartialPayload(t *testing.T) {
	base := runtime.NumGoroutine()
	st := stats.New()
	s := New(Config{QueueDepth: 8, Jobs: 1, CacheSize: 8, Stats: st})
	ts := httptest.NewServer(s.Handler())
	// deadline_ms 1 cuts the merger loop at its first boundary check.
	status, _, body := post(t, ts.Client(), ts.URL+"/v1/synthesize", `{"bench":"dct","width":16,"deadline_ms":1}`)
	if status != http.StatusOK {
		t.Fatalf("partial run: status %d: %s", status, body)
	}
	if !strings.Contains(string(body), `"status":"partial"`) {
		t.Fatalf("tight deadline did not produce a partial payload: %s", body)
	}
	// Partial results are timing-dependent; a rerun must not see a cache
	// marker.
	_, h, _ := post(t, ts.Client(), ts.URL+"/v1/synthesize", `{"bench":"dct","width":16,"deadline_ms":1}`)
	if h.Get("X-Hlts-Result") == "cached" {
		t.Error("partial result was served from the cache")
	}
	ts.Close()
	drainAndSettle(t, s, base)
}

// clientError is one row of testdata/client_errors.tsv.
type clientError struct {
	name, method, path, body string
	want                     int
}

// loadClientErrors reads the /v1 client-error rows.
func loadClientErrors(t *testing.T) []clientError {
	t.Helper()
	data, err := os.ReadFile("testdata/client_errors.tsv")
	if err != nil {
		t.Fatal(err)
	}
	var rows []clientError
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
		rows = append(rows, clientError{name: f[0], method: f[1], path: f[2], want: want, body: f[4]})
	}
	return rows
}

// TestClientErrors: malformed and invalid requests are typed 4xx client
// errors with JSON bodies, and never reach the queue.
func TestClientErrors(t *testing.T) {
	base := runtime.NumGoroutine()
	st := stats.New()
	s := New(Config{QueueDepth: 8, Jobs: 1, Stats: st})
	ts := httptest.NewServer(s.Handler())
	cases := loadClientErrors(t)
	for _, tc := range cases {
		var status int
		var body []byte
		if tc.method == "POST" {
			status, _, body = post(t, ts.Client(), ts.URL+tc.path, tc.body)
		} else {
			status, body = get(t, ts.Client(), ts.URL+tc.path)
		}
		if status != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, status, tc.want, body)
		}
		if !strings.Contains(string(body), `"error"`) {
			t.Errorf("%s: body %q has no error field", tc.name, body)
		}
	}
	if runs := st.Value("server.jobs.run"); runs != 0 {
		t.Errorf("client errors reached the queue: %d jobs ran", runs)
	}
	ts.Close()
	drainAndSettle(t, s, base)
}

// TestNormalizeSlackBounds: a slack is accepted from 0 up to the one
// that makes the latency the operation count, where a fully serial
// schedule fits, and refused outside that range, for every method and
// both endpoints.
func TestNormalizeSlackBounds(t *testing.T) {
	for _, bench := range []string{"ex", "ewf"} {
		g, err := hlts.LoadBenchmark(bench, 4)
		if err != nil {
			t.Fatal(err)
		}
		asap, err := sched.NewProblem(g).ASAP()
		if err != nil {
			t.Fatal(err)
		}
		most := g.NumNodes() - asap.Len
		for _, method := range hlts.Methods() {
			for slack, ok := range map[int]bool{-1: false, 0: true, most: true, most + 1: false} {
				r := SynthesizeRequest{Bench: bench, Width: 4, Method: method, Slack: slack}
				_, err := r.Normalize()
				_, tdErr := TestDesignRequest{SynthesizeRequest: r}.Normalize()
				if (err == nil) != ok || (tdErr == nil) != ok {
					t.Errorf("%s %s slack %d (at most %d): Normalize = %v, testdesign %v; want accepted %v", bench, method, slack, most, err, tdErr, ok)
				}
			}
		}
	}
}

// TestHealthAndMetrics: the observability endpoints report queue state
// and the Prometheus exposition, and healthz flips to 503 on drain.
func TestHealthAndMetrics(t *testing.T) {
	s := New(Config{QueueDepth: 8, Jobs: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if status, body := get(t, ts.Client(), ts.URL+"/healthz"); status != 200 || !strings.Contains(string(body), `"status":"ok"`) {
		t.Errorf("healthz: %d %s", status, body)
	}
	if status, body := get(t, ts.Client(), ts.URL+"/livez"); status != 200 || !strings.Contains(string(body), "ok") {
		t.Errorf("livez: %d %s", status, body)
	}
	post(t, ts.Client(), ts.URL+"/v1/synthesize", `{"bench":"ex","width":4}`)
	status, body := get(t, ts.Client(), ts.URL+"/metrics")
	if status != 200 {
		t.Fatalf("metrics: %d", status)
	}
	for _, want := range []string{
		"hlts_server_queue_queued", "hlts_server_queue_capacity", "hlts_server_inflight_jobs",
		"hlts_server_jobs_run 1", "hlts_server_http_synthesize_latency_seconds_bucket",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if status, body := get(t, ts.Client(), ts.URL+"/healthz"); status != 503 || !strings.Contains(string(body), "draining") {
		t.Errorf("healthz while draining: %d %s", status, body)
	}
	status, h, body := post(t, ts.Client(), ts.URL+"/v1/synthesize", `{"bench":"ex","width":4}`)
	if status != 503 {
		t.Errorf("submit while draining: %d %s", status, body)
	}
	// A drain-window 503 is as retryable as a full-queue 429 and must
	// carry the same backoff hint.
	if h.Get("Retry-After") == "" {
		t.Error("draining 503 without Retry-After")
	}
}

// TestJobErrorAnswers500: an error returned from inside a job body is
// the daemon's, not the client's — ReadRequest answers every input error
// with a 400 or 404 before a job exists — so it is a 500 with an
// ErrorBody. The error here is the ATPG fault site failing mid-campaign.
func TestJobErrorAnswers500(t *testing.T) {
	base := runtime.NumGoroutine()
	in := chaos.New(1).On(chaos.SiteATPGFault, chaos.Rule{Action: chaos.ActError, Prob: 1})
	restore := chaos.Install(in)
	defer restore()
	s := New(Config{QueueDepth: 4, Jobs: 1, CacheSize: -1})
	ts := httptest.NewServer(s.Handler())
	status, _, body := post(t, ts.Client(), ts.URL+"/v1/testdesign", `{"bench":"ex","width":4,"faults":20}`)
	ts.Close()
	if in.Fired(chaos.SiteATPGFault) == 0 {
		t.Fatal("atpg.fault site never fired")
	}
	if status != http.StatusInternalServerError {
		t.Fatalf("job error: status %d, want 500: %s", status, body)
	}
	var eb ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
		t.Errorf("500 body %q is not an ErrorBody (%v)", body, err)
	}
	drainAndSettle(t, s, base)
}

// TestPanickingJobAnswers500: a panic inside a job body is isolated by
// the worker's guard and answered as a typed 500 — the daemon survives.
func TestPanickingJobAnswers500(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New(Config{QueueDepth: 4, Jobs: 1, CacheSize: -1})
	rec := httptest.NewRecorder()
	s.serveJob(rec, httptest.NewRequest("POST", "/v1/synthesize", nil), time.Now(), &Request{Kind: KindSynthesize, FP: fpOf("boom")},
		func(ctx context.Context) (int, []byte, bool) { panic("job exploded") })
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking job: status %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "job exploded") {
		t.Errorf("500 body %q does not name the panic", rec.Body.String())
	}
	if s.st.Value("server.jobs.panicked") != 1 {
		t.Errorf("jobs.panicked = %d", s.st.Value("server.jobs.panicked"))
	}
	// The worker survived: the next job still runs.
	rec2 := httptest.NewRecorder()
	s.serveJob(rec2, httptest.NewRequest("POST", "/v1/synthesize", nil), time.Now(), &Request{Kind: KindSynthesize, FP: fpOf("after")}, blockingJob(nil, nil))
	if rec2.Code != http.StatusOK {
		t.Errorf("job after panic: status %d", rec2.Code)
	}
	drainAndSettle(t, s, base)
}
