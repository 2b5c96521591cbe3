// run.go runs one workload end to end: warm-up, timed set-ups, the
// measured window, the correctness gate, and, for a traced run, the
// in-process replay and the per-layer metrics.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
)

// env is where a run finds its inputs and puts its scratch state.
type env struct {
	root  string // repository root
	bins  string // built hltsd and hltsc
	work  string // stores and daemon logs
	nproc int    // cap on requests and connections in flight
}

// setupBoots is how many times a run starts its daemons; setup_s is the
// median.
const setupBoots = 9

// gate is the correctness gate of one run: every violation is recorded
// and counts as a failed request.
type gate struct {
	first      map[string][]byte // first complete answer per request key
	count      map[string]int    // answers per key
	violations []string
	failed     int
}

func newGate() *gate { return &gate{first: map[string][]byte{}, count: map[string]int{}} }

func (g *gate) violate(n int, format string, args ...any) {
	g.failed += n
	if len(g.violations) < 20 {
		g.violations = append(g.violations, fmt.Sprintf(format, args...))
	}
}

// observe checks answers as they come in: each must be complete, and
// every complete answer to a repeated key byte-identical to the first.
func (g *gate) observe(ss []sample) {
	for _, s := range ss {
		g.count[s.key]++
		if s.class != classOK {
			g.violate(1, "%s answer: %.200s", s.class, s.body)
			continue
		}
		if prev, ok := g.first[s.key]; !ok {
			g.first[s.key] = s.body
		} else if !bytes.Equal(prev, s.body) {
			g.violate(1, "repeated key answered with different bytes")
		}
	}
}

// fingerprints checks that every answer carries the fingerprint the
// request normalizes to, and returns each key's fingerprint.
func (g *gate) fingerprints() map[string]core.Fingerprint {
	fps := map[string]core.Fingerprint{}
	for key, body := range g.first {
		path, reqBody, _ := bytes.Cut([]byte(key), []byte(" "))
		_, _, fp, err := normalize(request{Path: string(path), Body: reqBody})
		if err != nil {
			g.violate(g.count[key], "request does not normalize: %v", err)
			continue
		}
		fps[key] = fp
		var ans struct {
			Fingerprint string `json:"fingerprint"`
			Synthesis   *struct {
				Fingerprint string `json:"fingerprint"`
			} `json:"synthesis"`
		}
		ok := json.Unmarshal(body, &ans) == nil && ans.Fingerprint == fp.String() &&
			(ans.Synthesis == nil || ans.Synthesis.Fingerprint == fp.String())
		if !ok {
			g.violate(g.count[key], "answer fingerprint is not the request's %s", fp)
		}
	}
	return fps
}

// runWorkload runs one workload at one seed and returns its result and,
// when traced, its trace.
func runWorkload(e *env, w *workload, seed uint64, seconds float64, traced bool) (*result, *traceOut, error) {
	dir, err := os.MkdirTemp(e.work, fmt.Sprintf("%s-%d-", w.name, seed))
	if err != nil {
		return nil, nil, err
	}
	p, err := w.plan(seed, seconds, e.root)
	if err != nil {
		return nil, nil, err
	}
	g := newGate()

	if len(p.warm) > 0 {
		if err := warmUp(e, w, dir, p.warm, g); err != nil {
			return nil, nil, err
		}
	}
	var f *fleet
	var setups []float64
	for k := 1; k <= setupBoots; k++ {
		if f != nil {
			if err := f.stopFresh(); err != nil {
				return nil, nil, err
			}
		}
		t0 := time.Now()
		if f, err = boot(e, w, dir, k); err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	ws, err := measure(e, w, p, f, traced)
	if stopErr := f.stop(); err == nil && stopErr != nil {
		g.violate(1, "daemon did not exit cleanly: %v", stopErr)
	}
	if err != nil {
		return nil, nil, err
	}

	for _, t := range ws.pre {
		g.observe([]sample{t.sample})
	}
	g.observe(ws.load.samples)
	fps := g.fingerprints()
	hits := ws.counter("server.cache.hit") + ws.counter("server.store.hit") + ws.counter("server.coalesce.hit")
	if w.noHits && hits != 0 {
		g.violate(1, "%v cache hits on a workload of unique requests", hits)
	}
	if jobs := ws.counter("server.jobs.run"); w.noJobs && jobs != 0 {
		g.violate(1, "%v pipeline jobs on a workload the caches must answer", jobs)
	}

	res := &result{Workload: w.name, Seed: seed, Trace: traced, Attempted: len(ws.load.samples) + len(ws.pre), Metrics: map[string]metric{}, Extra: map[string]metric{}}
	var tr *traceOut
	if traced {
		answers := map[core.Fingerprint][]byte{}
		for key, fp := range fps {
			answers[fp] = g.first[key]
		}
		storeDirs := map[string]string{}
		for i, wp := range f.workers {
			switch {
			case w.cluster:
				storeDirs[wp.url] = filepath.Join(dir, fmt.Sprintf("store-%d", i))
			case w.store:
				storeDirs[""] = filepath.Join(dir, "store")
			}
		}
		rp, openS, err := replayRun(dir, storeDirs, ws.pre, answers)
		if err != nil {
			return nil, nil, err
		}
		for _, v := range rp.violations {
			g.violate(1, "%s", v)
		}
		m := map[string]float64{"store.open_s": openS}
		rp.layerMetrics(m)
		ws.layerMetrics(m)
		for _, d := range perLayer {
			res.Metrics[d.name] = metric{Value: m[d.name], Unit: d.unit}
		}
		tr = &traceOut{Workload: w.name, Seed: seed, Shares: rp.shares(), Spans: rp.t.spans}
	} else {
		ws.endToEnd(res, setups)
		if w.name == "atpg-paper" {
			res.Extra["fault_coverage_pct"] = metric{Value: meanCoverage(ws.load.samples), Unit: "%"}
		}
	}
	res.Failed, res.Violations = g.failed, g.violations
	res.Correct = g.failed == 0
	res.Extra["fail_ratio"] = metric{Value: float64(g.failed) / float64(max(res.Attempted, 1)), Unit: "fraction"}
	if res.Correct {
		_ = os.RemoveAll(dir) // logs and stores are kept only to debug a failed run
	}
	return res, tr, nil
}

// warmUp computes the warm requests on a throw-away boot of the daemons;
// their answers join the identity check of the run.
func warmUp(e *env, w *workload, dir string, warm []request, g *gate) error {
	f, err := boot(e, w, dir, 0)
	if err != nil {
		return err
	}
	c := newLoadClient(f.front, e.nproc)
	lr := c.closed(func(i int) request { return warm[i] }, 0, len(warm))
	c.close()
	g.observe(lr.samples)
	if f.coord != nil {
		// Let anti-entropy copy every record to both workers, so the
		// restarted fleet holds the pool whichever worker now owns a key.
		waitReplicated(f, len(warm))
	}
	return f.stop()
}

// waitReplicated waits (at most 10s) until every worker's store holds n
// records.
func waitReplicated(f *fleet, n int) {
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(50 * time.Millisecond) {
		done := true
		for _, p := range f.workers {
			m, err := scrape(p.url)
			done = done && err == nil && m["hlts_server_store_records"] >= float64(n)
		}
		if done {
			return
		}
	}
}

// window is what one measured window observed.
type window struct {
	pre           []traced
	load          loadResult
	before, after metrics // summed /metrics of the workers around the window
	cBefore       metrics // the coordinator's, when clustered
	cAfter        metrics
	cpu, coordCPU time.Duration // daemon CPU spent in the window
	rss           float64       // median summed resident set of the daemons, bytes
	hopMS         float64
}

// counter is a worker counter's change over the window.
func (ws *window) counter(name string) float64 {
	return delta(ws.before, ws.after, promName(name))
}

// measure drives the load against a booted fleet. A traced run first
// sends the replay prefix one request at a time, so the daemons' own
// metrics time each of them alone.
func measure(e *env, w *workload, p *plan, f *fleet, traced bool) (*window, error) {
	ws := &window{}
	c := newLoadClient(f.front, e.nproc)
	defer c.close()
	from := 0
	if traced {
		for i := 0; i < w.prefix; i++ {
			t, err := sendAlone(c, f, p.stream(i))
			if err != nil {
				return nil, err
			}
			ws.pre = append(ws.pre, t)
		}
		if p.next != nil {
			from = w.prefix // unique streams must not repeat the prefix
		}
	}

	var err error
	if ws.before, err = scrapeAll(f.workers); err != nil {
		return nil, err
	}
	if f.coord != nil {
		if ws.cBefore, err = scrape(f.coord.url); err != nil {
			return nil, err
		}
	}
	cpu0, err := f.cpu()
	if err != nil {
		return nil, err
	}
	var coord0 time.Duration
	if f.coord != nil {
		if coord0, err = f.coord.cpu(); err != nil {
			return nil, err
		}
	}
	stop := make(chan struct{})
	var rssErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ws.rss, rssErr = f.sampleRSS(stop)
	}()
	if p.next != nil {
		ws.load = c.closed(p.next, from, p.n)
	} else {
		ws.load = c.open(p.sched)
	}
	close(stop)
	wg.Wait()
	if rssErr != nil {
		return nil, rssErr
	}
	cpu1, err := f.cpu()
	if err != nil {
		return nil, err
	}
	ws.cpu = cpu1 - cpu0
	if f.coord != nil {
		coord1, err := f.coord.cpu()
		if err != nil {
			return nil, err
		}
		ws.coordCPU = coord1 - coord0
		if ws.cAfter, err = scrape(f.coord.url); err != nil {
			return nil, err
		}
	}
	if ws.after, err = scrapeAll(f.workers); err != nil {
		return nil, err
	}
	if traced && f.coord != nil && len(p.warm) > 0 {
		ws.hopMS, err = hop(f, p.warm[0], e.nproc)
	}
	return ws, err
}

// sendAlone sends one request with nothing else in flight and reads the
// daemons' account of it from their metrics: whether a job ran, and how
// long. A worker records both before it answers.
func sendAlone(c *loadClient, f *fleet, r request) (traced, error) {
	r.At = 0
	before, err := scrapeAll(f.workers)
	if err != nil {
		return traced{}, err
	}
	s := c.send(r)
	after, err := scrapeAll(f.workers)
	if err != nil {
		return traced{}, err
	}
	t := traced{sample: s, req: r, jobRan: delta(before, after, promName("server.jobs.run")) > 0}
	if t.jobRan {
		t.jobMS = 1e3 * newHistDelta(before, after, "server.job.synthesize.latency", "server.job.testdesign.latency").sum
	}
	return t, nil
}

// hop is the coordinator's cost on one cached key: the median latency
// through hltsc minus the median straight to the worker that answers it.
func hop(f *fleet, r request, conc int) (float64, error) {
	probe := func(base string) (float64, string) {
		c := newLoadClient(base, conc)
		defer c.close()
		var lat []float64
		var node string
		for k := 0; k < minSamples+1; k++ {
			t0 := time.Now()
			s := c.send(r)
			lat = append(lat, ms(time.Since(t0)))
			node = s.node
		}
		return median(lat), node
	}
	via, owner := probe(f.front)
	if owner == "" {
		return 0, fmt.Errorf("coordinator answer names no worker")
	}
	direct, _ := probe(owner)
	return via - direct, nil
}

// endToEnd fills the end-to-end metrics of an untraced run.
func (ws *window) endToEnd(res *result, setups []float64) {
	lat := ws.load.okLatencies()
	m := map[string]float64{
		"setup_s":        median(setups),
		"throughput_rps": float64(len(lat)) / ws.load.elapsed.Seconds(),
		"latency_p50_ms": hdQuantile(lat, 0.5),
		"cpu_ms_per_req": ms(ws.cpu) / float64(max(len(lat), 1)),
		"rss_mb":         ws.rss / (1 << 20),
	}
	for _, d := range endToEnd {
		res.Metrics[d.name] = metric{Value: m[d.name], Unit: d.unit}
	}
	for _, q := range []struct {
		name string
		q    float64
	}{{"latency_p90_ms", 0.9}, {"latency_p99_ms", 0.99}} {
		if v, ok := percentile(lat, q.q); ok {
			res.Extra[q.name] = metric{Value: v, Unit: "ms"}
		}
	}
	res.Extra["driver.max_lag_ms"] = metric{Value: ms(ws.load.maxLag), Unit: "ms"}
	res.Extra["driver.samples"] = metric{Value: float64(len(lat)), Unit: "req"}
}

// layerMetrics fills the per-layer metrics the daemons' own counters and
// the load driver give for the measured window.
func (ws *window) layerMetrics(m map[string]float64) {
	http := newHistDelta(ws.before, ws.after, "server.http.synthesize.latency", "server.http.testdesign.latency")
	job := newHistDelta(ws.before, ws.after, "server.job.synthesize.latency", "server.job.testdesign.latency")
	// The daemons' histograms resolve nothing below a millisecond, so
	// these are means over the window, from the histogram sums.
	m["server.http_ms"] = http.meanMS()
	m["server.job_ms"] = job.meanMS()
	if job.count > 0 {
		// Handler time outside the job, per job: queueing plus decode,
		// normalization and write.
		m["server.queue_wait_ms"] = max(0, 1e3*(http.sum-job.sum)/job.count)
	}
	hit, store, miss := ws.counter("server.cache.hit"), ws.counter("server.store.hit"), ws.counter("server.cache.miss")
	if admitted := hit + store + miss; admitted > 0 {
		m["server.cache.hit_rate"] = hit / admitted
		m["server.store.hit_rate"] = store / admitted
	}
	m["server.coalesce.hits"] = ws.counter("server.coalesce.hit")
	m["server.jobs.run"] = ws.counter("server.jobs.run")
	m["server.queue.rejected"] = ws.counter("server.queue.rejected")
	m["server.replicate.pulled"] = ws.counter("server.replicate.pulled")
	m["server.replicate.readrepair"] = ws.counter("server.replicate.readrepair")

	ok := len(ws.load.okLatencies())
	if ws.cAfter != nil {
		m["cluster.hop_ms"] = ws.hopMS
		m["cluster.coordinator_cpu_ms_per_req"] = ms(ws.coordCPU) / float64(max(ok, 1))
		for _, c := range []string{"ok", "recovered", "pushback"} {
			m["cluster.dispatch."+c] = delta(ws.cBefore, ws.cAfter, promName("cluster.dispatch."+c))
		}
		m["cluster.replicate.lag"] = ws.cAfter[promName("cluster.replicate.lag")]
	}
	m["driver.max_lag_ms"] = ms(ws.load.maxLag)
	m["driver.samples"] = float64(ok)
}

// meanCoverage is the mean ATPG coverage over complete test-design
// answers, in percent.
func meanCoverage(ss []sample) float64 {
	var cov []float64
	for _, s := range ss {
		var a struct{ Coverage float64 }
		if s.class == classOK && json.Unmarshal(s.body, &a) == nil {
			cov = append(cov, 100*a.Coverage)
		}
	}
	return mean(cov)
}
