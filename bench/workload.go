// workload.go defines the benchmark's four workloads: which daemons serve
// each one, which requests it sends, and which loop drives them. Request
// bodies are a pure function of the workload seed; the daemons receive
// only these bytes.
package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/dfggen"
	"repro/internal/gates"
	"repro/internal/loadgen"
	"repro/internal/server"
)

// minSamples is the smallest run that still reports a median under the
// percentile rule (at least ten samples beyond it).
const minSamples = 20

// closedCount sizes a closed-loop window: whole cycles of a workload's
// request mix, enough to last about seconds at the given throughput
// (measured on a 2-CPU machine). Whole cycles give every seed the same
// mix, so runs differ in their inputs' details, not in their cost
// profile.
func closedCount(seconds, rps float64, cycle int) int {
	cycles := int(math.Ceil(seconds * rps / float64(cycle)))
	return max(cycles*cycle, (minSamples+cycle-1)/cycle*cycle)
}

// request is one call the load driver makes.
type request struct {
	At   time.Duration // due offset from the start of an open-loop window
	Path string
	Body []byte
}

// key identifies the request: complete answers to equal keys must be
// byte-identical.
func (r request) key() string { return r.Path + " " + string(r.Body) }

// plan is the input of one run.
type plan struct {
	// warm is sent before the timed set-ups; the daemons are then
	// restarted, so measurement starts from state they reload from disk.
	warm []request
	// next is the closed-loop request stream and n how many of its
	// requests a window sends; nil for open loops.
	next func(i int) request
	n    int
	// sched is the open-loop schedule.
	sched []request
}

// stream returns request i of the run.
func (p *plan) stream(i int) request {
	if p.next != nil {
		return p.next(i)
	}
	return p.sched[i]
}

// workload is one traffic mix and the daemons it runs against.
type workload struct {
	name string
	// cluster drives hltsc fronting two hltsd workers instead of one
	// hltsd.
	cluster bool
	// args are hltsd flags beyond those boot passes every standalone
	// daemon; a cluster's flags are fixed in boot.
	args  []string
	store bool
	// prefix is how many leading requests the traced run replays
	// in-process.
	prefix int
	// noHits: every request must miss every cache layer. noJobs: no
	// request may run a pipeline job.
	noHits, noJobs bool
	plan           func(seed uint64, seconds float64, root string) (*plan, error)
}

var workloads = []*workload{
	{
		name:   "atpg-paper",
		prefix: 2,
		noHits: true,
		plan:   atpgPaper,
	},
	{
		name:   "synth-unique",
		store:  true,
		prefix: 8,
		noHits: true,
		plan:   synthUnique,
	},
	{
		name:   "serve-hot",
		args:   []string{"-cache", "128"},
		store:  true,
		prefix: 16,
		noJobs: true,
		plan:   serveHot,
	},
	{
		name:    "cluster-mixed",
		cluster: true,
		prefix:  10,
		plan:    clusterMixed,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // static request structs always marshal
	}
	return b
}

// derive folds a label into the workload seed, so each stream drawn from
// one seed is independent of the others.
func derive(seed, label uint64) uint64 { return gates.SplitMix64(seed ^ gates.SplitMix64(label)) }

// atpgPaper: the paper's designs through /v1/testdesign, closed loop, in a
// fixed order, dearest first so the cycle does not end on one long
// request. The seed changes only the ATPG seed, so no two fingerprints
// match.
func atpgPaper(seed uint64, seconds float64, _ string) (*plan, error) {
	designs := []struct {
		bench string
		width int
	}{{"ewf", 4}, {"dct", 8}, {"diffeq", 8}, {"ex", 8}, {"dct", 4}, {"ex", 4}, {"diffeq", 4}}
	return &plan{n: closedCount(seconds, 1.05, len(designs)), next: func(i int) request {
		d := designs[i%len(designs)]
		req := server.TestDesignRequest{
			SynthesizeRequest: server.SynthesizeRequest{Bench: d.bench, Width: d.width},
			Seed:              int64(derive(seed, 0xA7B6+uint64(i))>>2) + 1,
			Faults:            300,
		}
		if i%2 == 1 {
			req.BIST = &server.BISTRequest{TPG: 2, MISR: 2, Cycles: 100, Faults: 200}
		}
		return request{Path: "/v1/testdesign", Body: mustJSON(req)}
	}}, nil
}

// synthUnique: never-repeated /v1/synthesize requests, closed loop. 85%
// are generated specs whose op count, mix and shape cycle in a fixed
// order (so every seed draws the same cost profile), 15% are the
// shipped VHDL sources with k, alpha and width varied. The mix repeats
// every 120 requests.
func synthUnique(seed uint64, seconds float64, root string) (*plan, error) {
	var vhdl []string
	for _, f := range []string{"diffeq.vhd", "fir4.vhd"} {
		b, err := os.ReadFile(filepath.Join(root, "testdata", f))
		if err != nil {
			return nil, err
		}
		vhdl = append(vhdl, string(b))
	}
	mixes, shapes := dfggen.Mixes(), dfggen.Shapes()
	return &plan{n: closedCount(seconds, 17.5, 120), next: func(i int) request {
		var req server.SynthesizeRequest
		switch i % 20 {
		case 3, 10, 16:
			// Distinct alphas keep every VHDL request unique.
			alpha := 1.5 + float64(i)/1024 + float64(seed%64)/65536
			req = server.SynthesizeRequest{
				VHDL:  vhdl[(i/7)%len(vhdl)],
				Width: 4 + 4*((i/20)%2),
				K:     2 + i%3,
				Alpha: &alpha,
			}
		default:
			spec := dfggen.Spec{
				Seed:   derive(seed, 0x5E11) + uint64(i),
				Ops:    12 + i%8,
				Mix:    mixes[i%len(mixes)],
				Shape:  shapes[(i/6)%len(shapes)],
				Fanout: 1 + (i/3)%4,
				Loop:   i%5 == 0,
			}
			req = server.SynthesizeRequest{Bench: spec.Name(), Width: 4}
		}
		return request{Path: "/v1/synthesize", Body: mustJSON(req)}
	}}, nil
}

// hotPool is the number of small synthesize keys serve-hot draws from: 4x
// the daemon's 128-entry LRU, so requests split between LRU and store
// hits.
const hotPool = 512

// serveHot: an open loop at 200 rps over a pool the daemon has already
// computed, with the interactive min-of-two popularity skew.
func serveHot(seed uint64, seconds float64, _ string) (*plan, error) {
	mixes, shapes := []string{"arith", "cmp", "mixed"}, []string{"mesh", "wide"}
	pool := make([]request, hotPool)
	for p := range pool {
		spec := dfggen.Spec{
			Seed:  derive(seed, 0x407) + uint64(p),
			Ops:   6 + p%3,
			Mix:   mixes[p%len(mixes)],
			Shape: shapes[p%len(shapes)],
		}
		pool[p] = request{Path: "/v1/synthesize", Body: mustJSON(server.SynthesizeRequest{Bench: spec.Name(), Width: 4 + 4*(p%2)})}
	}
	arrivals, err := openSchedule(loadgen.ProfileInteractive, seed, 200, seconds)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(int64(derive(seed, 0x5E7))))
	sched := make([]request, len(arrivals))
	for i, a := range arrivals {
		p := rng.Intn(hotPool)
		if q := rng.Intn(hotPool); q < p {
			p = q
		}
		sched[i] = pool[p]
		sched[i].At = a.At
	}
	return &plan{warm: pool, sched: sched}, nil
}

// clusterMixed: an open loop at 6 rps through the coordinator. Seven in
// ten requests come from the interactive-small pool (warmed before the
// timed window); the other three, at fixed positions, are never-seen
// small specs in a fixed cycle of sizes, mixes and shapes, so their
// misses cost the same on every seed and the replication, read-repair
// and hop costs stay visible beside them.
func clusterMixed(seed uint64, seconds float64, _ string) (*plan, error) {
	sched, err := openSchedule(loadgen.ProfileInteractive, seed, 6, seconds)
	if err != nil {
		return nil, err
	}
	mixes, shapes := dfggen.Mixes(), dfggen.Shapes()
	var warm []request
	seen := map[string]bool{}
	u := 0
	for i := range sched {
		switch i % 10 {
		case 2, 5, 8:
			spec := dfggen.Spec{
				Seed:  derive(seed, 0xC1) + uint64(u),
				Ops:   6 + u%3,
				Mix:   mixes[u%len(mixes)],
				Shape: shapes[(u/6)%len(shapes)],
			}
			sched[i].Body = mustJSON(server.SynthesizeRequest{Bench: spec.Name(), Width: 4})
			u++
			continue
		}
		if k := sched[i].key(); !seen[k] {
			seen[k] = true
			warm = append(warm, request{Path: sched[i].Path, Body: sched[i].Body})
		}
	}
	return &plan{warm: warm, sched: sched}, nil
}

// openSchedule draws the arrival times and bodies of a loadgen profile
// at the given rate, with at least minSamples requests. The jittered gaps
// are rescaled so the last request is due at exactly n/rate: every seed
// offers the same load over the same span.
func openSchedule(profile string, seed uint64, rate, seconds float64) ([]request, error) {
	n := max(int(rate*seconds), minSamples)
	s, err := loadgen.BuildSchedule(loadgen.ScheduleOptions{Profile: profile, Seed: seed, Rate: rate, Requests: n})
	if err != nil {
		return nil, err
	}
	span := float64(n-1) / rate * float64(time.Second)
	last := float64(s.Requests[n-1].At)
	out := make([]request, n)
	for i, r := range s.Requests {
		out[i] = request{At: time.Duration(float64(r.At) / last * span), Path: r.Path, Body: r.Body}
	}
	return out, nil
}
