// replay.go is the in-process half of the traced run. It replays the first
// requests of a workload through the public functions of each layer,
// inside spans; checks that every answer the daemons gave for them is
// byte-identical to the reference those functions produce; runs the two
// oracles; and times the layer calls the request path makes only
// indirectly (graph loading, fault simulation, store, cached handler).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strings"
	"time"

	hlts "repro"
	"repro/internal/atpg"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/logicsim"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/store"
)

// traced is one request the traced run sent alone, before the measured
// window, with the daemon's own account of it.
type traced struct {
	sample
	req request
	// jobRan: the daemon ran a pipeline job for it (otherwise a cache
	// answered), taking jobMS.
	jobRan bool
	jobMS  float64
}

// replayRec is what the replay learned about one traced request.
type replayRec struct {
	endpoint  string // "synthesize" or "testdesign"
	root      int    // request root span
	compute   bool
	jobMS     float64
	loadLayer string        // "dfg" or "hdl"
	load      time.Duration // dfg.load / hdl.compile probe
	collapse  time.Duration // fault.collapse inside atpg.run
	faultsim  time.Duration // random-phase fault simulation inside atpg.run
	collapsed int
	c         *computed
}

// computed is one in-process run of a request's pipeline.
type computed struct {
	body     []byte
	graph    *hlts.Graph
	width    int
	loopFree bool
	res      *hlts.Result
	nl       *hlts.Netlist
	acfg     hlts.ATPGConfig
	ares     *hlts.ATPGResult
	bres     *atpg.BISTOutcome
	st       *stats.Stats
}

type replayer struct {
	ctx        context.Context
	t          *tracer
	recs       []*replayRec
	violations []string
}

func (rp *replayer) violate(format string, args ...any) {
	rp.violations = append(rp.violations, fmt.Sprintf(format, args...))
}

func decodeStrict(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// marshal is the daemons' response framing: compact JSON plus a newline.
func marshal(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	return append(b, '\n'), err
}

// normalize decodes and normalizes a request as the daemon's handler
// does, returning its fingerprint.
func normalize(r request) (ns *server.NormSynthesize, nt *server.NormTestDesign, fp core.Fingerprint, err error) {
	switch r.Path {
	case "/v1/synthesize":
		var req server.SynthesizeRequest
		if err = decodeStrict(r.Body, &req); err == nil {
			if ns, err = req.Normalize(); err == nil {
				fp = ns.Fingerprint()
			}
		}
	case "/v1/testdesign":
		var req server.TestDesignRequest
		if err = decodeStrict(r.Body, &req); err == nil {
			if nt, err = req.Normalize(); err == nil {
				fp = nt.Fingerprint()
			}
		}
	default:
		err = fmt.Errorf("no replay for %s", r.Path)
	}
	return ns, nt, fp, err
}

// pipeline runs the request's job as the daemon does (the /v1/synthesize
// handler body or server.runTestDesign), one span per layer call, with
// the daemon's per-job worker budget of one.
func (rp *replayer) pipeline(root int, r request) (*computed, error) {
	t, c := rp.t, &computed{st: stats.New()}
	var ns *server.NormSynthesize
	var nt *server.NormTestDesign
	if _, err := t.do(root, "server.fingerprint", func() (err error) {
		ns, nt, _, err = normalize(r)
		return err
	}); err != nil {
		return nil, err
	}
	if nt != nil {
		ns = &nt.NormSynthesize
	}
	ns.Params.Workers, ns.Params.Stats = 1, c.st
	c.graph, c.width = ns.Graph, ns.Params.Width
	c.loopFree = ns.Params.LoopSignal == ""
	if _, err := t.do(root, "core.synth", func() (err error) {
		c.res, err = hlts.RunMethodCtx(rp.ctx, ns.Method, ns.Graph, ns.Params)
		return err
	}); err != nil {
		return nil, err
	}
	if nt == nil {
		_, err := t.do(root, "server.build", func() (err error) {
			c.body, err = marshal(server.BuildSynthesizeResponse(ns, c.res))
			return err
		})
		return c, err
	}

	var scanRegs []int
	if _, err := t.do(root, "rtl.generate", func() (err error) {
		if nt.Scan > 0 {
			scanRegs, _ = hlts.SelectScanRegisters(c.res, nt.Scan)
		}
		c.nl, err = hlts.GenerateNetlistWithScan(c.res, c.width, nt.TestMode, scanRegs)
		return err
	}); err != nil {
		return nil, err
	}
	c.loopFree = c.loopFree && !nt.TestMode && nt.Scan == 0
	c.acfg = hlts.DefaultATPGConfig(nt.Seed)
	c.acfg.SampleFaults, c.acfg.Workers = nt.Faults, ns.Params.Workers
	if _, err := t.do(root, "atpg.run", func() (err error) {
		c.ares, err = hlts.TestDesignCtx(rp.ctx, c.nl, c.acfg)
		return err
	}); err != nil {
		return nil, err
	}
	var tpg, misr []int
	if b := nt.BIST; b != nil {
		var bn *hlts.Netlist
		if _, err := t.do(root, "rtl.generate_bist", func() (err error) {
			tpg, misr = hlts.SelectBISTRegisters(c.res, b.TPG, b.MISR)
			bn, err = hlts.GenerateNetlistWithBIST(c.res, c.width, tpg, misr)
			return err
		}); err != nil {
			return nil, err
		}
		if _, err := t.do(root, "atpg.bist", func() (err error) {
			c.bres, err = hlts.RunBISTCfgCtx(rp.ctx, bn, b.Faults, b.Cycles, hlts.BISTConfig{Lanes: b.Lanes})
			return err
		}); err != nil {
			return nil, err
		}
	}
	_, err := t.do(root, "server.build", func() (err error) {
		c.body, err = marshal(server.BuildTestDesignResponse(nt, c.res, c.nl, scanRegs, c.ares, tpg, misr, c.bres))
		return err
	})
	return c, err
}

// replayOne replays traced request i. A request the daemon computed is
// replayed as that computation; one a cache answered is replayed as the
// hit path (fingerprint, then the store read), with the reference
// computed under a check root.
func (rp *replayer) replayOne(i int, tr traced, stores map[string]*store.Store) {
	t := rp.t
	rec := &replayRec{endpoint: strings.TrimPrefix(tr.req.Path, "/v1/"), compute: tr.jobRan, jobMS: tr.jobMS}
	rp.recs = append(rp.recs, rec)
	rp.probeLoad(i, rec, tr.req)

	rec.root = t.root(kindRequest, "request", i)
	var c *computed
	var err error
	if tr.jobRan {
		c, err = rp.pipeline(rec.root, tr.req)
		t.end(rec.root)
	} else {
		var fp core.Fingerprint
		_, err = t.do(rec.root, "server.fingerprint", func() (err error) {
			_, _, fp, err = normalize(tr.req)
			return err
		})
		if st := stores[tr.node]; st != nil && err == nil {
			_, _ = t.do(rec.root, "store.get", func() error {
				st.Get(fp)
				return nil
			})
		}
		t.end(rec.root)
		if err == nil {
			check := t.root(kindCheck, "reference", i)
			c, err = rp.pipeline(check, tr.req)
			t.end(check)
		}
	}
	if err != nil {
		rp.violate("request %d: in-process replay failed: %v", i, err)
		return
	}
	rec.c = c
	if !bytes.Equal(c.body, tr.body) {
		rp.violate("request %d: daemon answer differs from the in-process reference", i)
	}
	check := t.root(kindCheck, "oracles", i)
	rp.oracles(check, i, rec)
	t.end(check)
}

// probeLoad times the graph load Normalize performs, in isolation.
func (rp *replayer) probeLoad(i int, rec *replayRec, r request) {
	var req server.SynthesizeRequest
	if r.Path == "/v1/testdesign" {
		var td server.TestDesignRequest
		if decodeStrict(r.Body, &td) != nil {
			return
		}
		req = td.SynthesizeRequest
	} else if decodeStrict(r.Body, &req) != nil {
		return
	}
	root := rp.t.root(kindProbe, "load", i)
	var id int
	if req.VHDL != "" {
		rec.loadLayer = "hdl"
		id, _ = rp.t.do(root, "hdl.compile", func() error { _, err := hlts.CompileVHDL(req.VHDL, req.Width); return err })
	} else {
		rec.loadLayer = "dfg"
		id, _ = rp.t.do(root, "dfg.load", func() error { _, err := hlts.LoadBenchmark(req.Bench, req.Width); return err })
	}
	rp.t.end(root)
	rec.load = rp.t.spans[id].end - rp.t.spans[id].start
}

// oracles checks a computed design two independent ways: the behavioural
// interpreter must agree with gate-level simulation on 16 seeded input
// vectors (loop-free designs), and replaying the ATPG test set must
// detect at least the faults the campaign claims. It also times fault
// collapsing and the random phase's fault simulation on the design.
func (rp *replayer) oracles(root, i int, rec *replayRec) {
	t, c := rp.t, rec.c
	nl := c.nl
	if nl == nil {
		if _, err := t.do(root, "rtl.generate", func() (err error) {
			nl, err = hlts.GenerateNetlist(c.res, c.width, false)
			return err
		}); err != nil {
			rp.violate("request %d: netlist for the oracle: %v", i, err)
			return
		}
	}
	if c.loopFree {
		if _, err := t.do(root, "oracle.interpret", func() error {
			rng := rand.New(rand.NewSource(int64(i) + 1))
			for v := 0; v < 16; v++ {
				in := map[string]uint64{}
				for _, id := range c.graph.Inputs() {
					in[c.graph.Value(id).Name] = rng.Uint64()
				}
				want, err := c.graph.Interpret(c.width, in)
				if err != nil {
					return err
				}
				got, err := nl.SimulatePass(in)
				if err != nil {
					return err
				}
				for k, w := range want {
					if got[k] != w {
						return fmt.Errorf("vector %d: output %s = %d at gate level, %d behaviourally", v, k, got[k], w)
					}
				}
			}
			return nil
		}); err != nil {
			rp.violate("request %d: interpreter oracle: %v", i, err)
		}
	}
	if c.ares == nil {
		return
	}
	// Fault collapsing and the random phase run inside atpg.run; probe
	// roots time them alone so the layer shares can split them out.
	probe := t.root(kindProbe, "faultsim", i)
	var flist []fault.Fault
	id, _ := t.do(probe, "fault.collapse", func() error {
		all := fault.Collapse(nl.C)
		rec.collapsed = len(all)
		flist = fault.Sample(all, c.acfg.SampleFaults)
		return nil
	})
	rec.collapse = t.spans[id].end - t.spans[id].start

	// The random phase's volume: RandomBatches sequences of SeqLen
	// 64-lane vectors, each from reset, over the sampled fault list.
	rng := rand.New(rand.NewSource(c.acfg.Seed))
	batches := make([][][]uint64, c.acfg.RandomBatches)
	for b := range batches {
		for s := 0; s < c.acfg.SeqLen; s++ {
			v := make([]uint64, len(nl.C.Inputs))
			for k := range v {
				v[k] = rng.Uint64()
			}
			batches[b] = append(batches[b], v)
		}
	}
	detected := make([]bool, len(flist))
	id, err := t.do(probe, "logicsim.faultsim", func() error {
		for _, vecs := range batches {
			if _, err := logicsim.FaultSimIncrementalWorkers(nl.C, flist, detected, nil, vecs, 0, 1); err != nil {
				return err
			}
		}
		return nil
	})
	t.end(probe)
	if err != nil {
		rp.violate("request %d: fault simulation probe: %v", i, err)
	}
	rec.faultsim = t.spans[id].end - t.spans[id].start

	if _, err := t.do(root, "oracle.replay", func() error {
		n, err := atpg.Replay(nl.C, c.ares.TestSet, flist)
		if err == nil && n < c.ares.Detected() {
			err = fmt.Errorf("test set detects %d faults, campaign claims %d", n, c.ares.Detected())
		}
		return err
	}); err != nil {
		rp.violate("request %d: replay oracle: %v", i, err)
	}
}

// probeHandler times the daemon's cached-answer path in-process: one
// request computed by a fresh server, then served again from its cache.
func (rp *replayer) probeHandler(r request, want []byte) {
	srv := server.New(server.Config{Jobs: 1, Workers: 1})
	defer srv.Drain(rp.ctx)
	h := srv.Handler()
	serve := func() []byte {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("POST", r.Path, bytes.NewReader(r.Body)))
		return rr.Body.Bytes()
	}
	if got := serve(); !bytes.Equal(got, want) {
		rp.violate("in-process server answer differs from the daemon's")
	}
	root := rp.t.root(kindProbe, "handler", -1)
	for k := 0; k < minSamples+1; k++ {
		_, _ = rp.t.do(root, "server.handler_hit", func() error { serve(); return nil })
	}
	rp.t.end(root)
}

// probeStore writes the run's distinct answers to a fresh store and reads
// them back, one span per call, fsync included.
func (rp *replayer) probeStore(dir string, recs map[core.Fingerprint][]byte) error {
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	fps := make([]core.Fingerprint, 0, len(recs))
	for fp := range recs {
		fps = append(fps, fp)
	}
	sort.Slice(fps, func(a, b int) bool { return bytes.Compare(fps[a][:], fps[b][:]) < 0 })
	if len(fps) > 256 {
		fps = fps[:256]
	}
	root := rp.t.root(kindProbe, "store", -1)
	for _, fp := range fps {
		if _, err := rp.t.do(root, "store.put", func() error { return st.Put(fp, recs[fp]) }); err != nil {
			st.Close()
			return err
		}
	}
	for _, fp := range fps {
		_, _ = rp.t.do(root, "store.get", func() error { st.Get(fp); return nil })
	}
	rp.t.end(root)
	return st.Close()
}

// replayRun is the traced run's in-process phase for one workload. It
// opens the stores the daemons left behind (timing the first open),
// replays the traced requests, and probes the handler and store layers.
func replayRun(dir string, storeDirs map[string]string, trs []traced, answers map[core.Fingerprint][]byte) (*replayer, float64, error) {
	rp := &replayer{ctx: context.Background(), t: newTracer()}
	stores := map[string]*store.Store{}
	openS := -1.0
	for node, d := range storeDirs {
		t0 := time.Now()
		st, err := store.Open(d, store.Options{})
		if err != nil {
			return nil, 0, err
		}
		if openS < 0 {
			openS = time.Since(t0).Seconds()
		}
		defer st.Close()
		stores[node] = st
	}
	for i, tr := range trs {
		rp.replayOne(i, tr, stores)
	}
	if len(trs) > 0 {
		rp.probeHandler(trs[0].req, trs[0].body)
	}
	probeDir := filepath.Join(dir, "probe-store")
	if err := rp.probeStore(probeDir, answers); err != nil {
		return nil, 0, err
	}
	if openS < 0 {
		t0 := time.Now()
		st, err := store.Open(probeDir, store.Options{})
		if err != nil {
			return nil, 0, err
		}
		openS = time.Since(t0).Seconds()
		st.Close()
	}
	rp.t.finish()
	return rp, openS, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// layerMetrics derives the per-layer metrics the replay measures.
func (rp *replayer) layerMetrics(m map[string]float64) {
	// Per-call timings come from request and probe roots; check roots
	// only verify.
	byName := map[string][]float64{}
	rootOf := make([]int, len(rp.t.spans))
	for i, s := range rp.t.spans {
		rootOf[i] = i
		if s.Parent < 0 {
			continue
		}
		rootOf[i] = rootOf[s.Parent]
		if rp.t.spans[rootOf[i]].Kind != kindCheck {
			byName[s.Name] = append(byName[s.Name], ms(s.dur()))
		}
	}
	for name, metric := range map[string]string{
		"hdl.compile": "hdl.compile_ms", "dfg.load": "dfg.load_ms",
		"server.fingerprint": "server.fingerprint_ms", "server.handler_hit": "server.handler_hit_ms",
		"core.synth": "core.synth_ms", "rtl.generate": "rtl.generate_ms",
		"fault.collapse": "fault.collapse_ms", "logicsim.faultsim": "logicsim.faultsim_ms",
		"atpg.run": "atpg.run_ms", "atpg.bist": "atpg.bist_ms",
		"store.put": "store.put_ms", "store.get": "store.get_ms",
	} {
		m[metric] = median(byName[name])
	}

	var podem, coverage []float64
	timers := map[string][]float64{}
	var hits, misses [2]int64
	var faultsIn, podemDet int
	for _, rec := range rp.recs {
		c := rec.c
		if c == nil || !rec.compute {
			continue
		}
		for _, name := range []string{"sched", "floorplan", "testability", "reach"} {
			timers[name] = append(timers[name], ms(c.st.Duration("time."+name)))
		}
		m["core.evaluations"] += float64(c.st.Value("core.evaluations"))
		m["core.prunes"] += float64(c.st.Value("core.prunes"))
		for k, p := range []string{"cache.build", "cache.metrics"} {
			hits[k] += c.st.Value(p + ".hit")
			misses[k] += c.st.Value(p + ".miss")
		}
		if c.nl != nil {
			m["rtl.gates"] += float64(c.nl.C.NumGates())
		}
		m["fault.collapsed"] += float64(rec.collapsed)
		if a := c.ares; a != nil {
			podem = append(podem, ms(rp.t.spans[rp.child(rec.root, "atpg.run")].dur()-rec.faultsim))
			coverage = append(coverage, 100*a.Coverage)
			m["atpg.effort_keval"] += float64(a.Effort)
			m["atpg.random_detected"] += float64(a.RandomDetected)
			m["atpg.det_detected"] += float64(a.DetDetected)
			m["atpg.aborted"] += float64(a.Aborted)
			m["atpg.frame_limited"] += float64(a.FrameLimited)
			faultsIn += a.TotalFaults - a.RandomDetected
			podemDet += a.DetDetected
		}
		if c.bres != nil {
			m["atpg.bist_passes"] += float64(c.bres.Passes)
		}
	}
	for name, ts := range timers {
		m["core.time."+name+"_ms"] = median(ts)
	}
	m["core.cache.build.hit_rate"] = pct(hits[0], hits[0]+misses[0])
	m["core.cache.metrics.hit_rate"] = pct(hits[1], hits[1]+misses[1])
	m["atpg.podem_ms"] = median(podem)
	m["atpg.podem_yield"] = pct(int64(podemDet), int64(faultsIn))
	m["atpg.fault_coverage_pct"] = mean(coverage)

	// Attribution: the layer self time of the replayed jobs against the
	// daemon's own time for the same jobs.
	var attributed, jobMS float64
	for _, rec := range rp.recs {
		if rec.c == nil || !rec.compute {
			continue
		}
		root := rp.t.spans[rec.root]
		attributed += ms(root.dur() - root.self)
		jobMS += rec.jobMS
	}
	if jobMS > 0 {
		m["trace.attributed_ratio"] = attributed / jobMS
	}
}

// child returns the id of root's first child span with the given name.
func (rp *replayer) child(root int, name string) int {
	for i := root + 1; i < len(rp.t.spans); i++ {
		if s := rp.t.spans[i]; s.Parent == root && s.Name == name {
			return i
		}
	}
	return root
}

// shares is the fraction of request-root time each layer costs, per
// endpoint. Calls a layer makes inside another's public function are
// split out by their probes: graph loading from the server's
// Normalize, fault collapsing and the random phase from atpg.run.
func (rp *replayer) shares() map[string]map[string]float64 {
	out := map[string]map[string]float64{}
	totals := map[string]time.Duration{}
	sums := map[string]map[string]time.Duration{}
	for _, rec := range rp.recs {
		if rec.c == nil {
			continue
		}
		root := rp.t.spans[rec.root]
		ls := layerSelf(rp.t.spans, rec.root)
		ls[kindRequest] += root.self
		move := func(from, to string, d time.Duration) {
			d = min(d, ls[from])
			ls[from] -= d
			ls[to] += d
		}
		move("server", rec.loadLayer, rec.load)
		if rec.compute {
			move("atpg", "fault", rec.collapse)
			move("atpg", "logicsim", rec.faultsim)
		}
		if sums[rec.endpoint] == nil {
			sums[rec.endpoint] = map[string]time.Duration{}
		}
		for l, d := range ls {
			sums[rec.endpoint][l] += d
		}
		totals[rec.endpoint] += root.dur()
	}
	for ep, ls := range sums {
		out[ep] = map[string]float64{}
		for l, d := range ls {
			if totals[ep] > 0 {
				out[ep][l] = float64(d) / float64(totals[ep])
			}
		}
	}
	return out
}

func pct(n, d int64) float64 {
	if d == 0 {
		return 0
	}
	return 100 * float64(n) / float64(d)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
