package atpg

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/dfggen"
	"repro/internal/fault"
	"repro/internal/gates"
	"repro/internal/logicsim"
	"repro/internal/rtl"
)

// The reference PODEM below is the full-resimulation implementation the
// event-driven searcher replaced: every implication step re-simulates
// every gate of every frame with a gate-kind switch and a per-pin fault
// compare, and the objective scans every gate of every frame for the
// D-frontier. The differential tests require the searcher to reproduce
// its results exactly.

func bool2v(b bool) int8 {
	if b {
		return v1
	}
	return v0
}

// frameSim simulates the good and faulty circuits over T time frames with
// three-valued logic. Frame 0 starts from the all-zero reset state.
type frameSim struct {
	c      *gates.Circuit
	order  []int
	frames int
	flt    fault.Fault
	// pi[t][k] is the assigned value of primary input k in frame t.
	pi [][]int8
	// good[t][g], bad[t][g] are the circuit values.
	good, bad [][]int8
	piIx      map[int]int
	rng       *rand.Rand
	// obsDist[g] is the static fanout distance from gate g to the nearest
	// primary output (crossing flip-flops freely); used to steer the
	// D-frontier toward observable logic.
	obsDist []int
	// implications counts gate evaluations, the ATPG effort measure.
	implications int64
}

func newFrameSim(c *gates.Circuit, flt fault.Fault, frames int) (*frameSim, error) {
	order, err := c.Levelize()
	if err != nil {
		return nil, err
	}
	fs := &frameSim{c: c, order: order, frames: frames, flt: flt, piIx: map[int]int{}}
	for i, id := range c.Inputs {
		fs.piIx[id] = i
	}
	fs.obsDist = make([]int, len(c.Gates))
	const inf = 1 << 29
	for i := range fs.obsDist {
		fs.obsDist[i] = inf
	}
	queue := make([]int, 0, len(c.Gates))
	for _, o := range c.Outputs {
		if fs.obsDist[o] == inf {
			fs.obsDist[o] = 0
			queue = append(queue, o)
		}
	}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		for _, in := range c.Gates[id].In {
			if fs.obsDist[in] > fs.obsDist[id]+1 {
				fs.obsDist[in] = fs.obsDist[id] + 1
				queue = append(queue, in)
			}
		}
	}
	fs.pi = make([][]int8, frames)
	fs.good = make([][]int8, frames)
	fs.bad = make([][]int8, frames)
	for t := 0; t < frames; t++ {
		fs.pi[t] = make([]int8, len(c.Inputs))
		for k := range fs.pi[t] {
			fs.pi[t][k] = vX
		}
		fs.good[t] = make([]int8, len(c.Gates))
		fs.bad[t] = make([]int8, len(c.Gates))
	}
	return fs, nil
}

func eval3(kind gates.Kind, ins []int8) int8 {
	switch kind {
	case gates.KConst0:
		return v0
	case gates.KConst1:
		return v1
	case gates.KBuf:
		return ins[0]
	case gates.KNot:
		return inv3(ins[0])
	case gates.KAnd, gates.KNand:
		out := v1
		for _, x := range ins {
			if x == v0 {
				out = v0
				break
			}
			if x == vX {
				out = vX
			}
		}
		if kind == gates.KNand {
			out = inv3(out)
		}
		return out
	case gates.KOr, gates.KNor:
		out := v0
		for _, x := range ins {
			if x == v1 {
				out = v1
				break
			}
			if x == vX {
				out = vX
			}
		}
		if kind == gates.KNor {
			out = inv3(out)
		}
		return out
	case gates.KXor, gates.KXnor:
		a, b := ins[0], ins[1]
		if a == vX || b == vX {
			return vX
		}
		out := a ^ b
		if kind == gates.KXnor {
			out = inv3(out)
		}
		return out
	}
	return vX
}

// simulate recomputes both circuits across all frames from the current PI
// assignment.
func (fs *frameSim) simulate() {
	piIx := fs.piIx
	var insG, insB []int8
	for t := 0; t < fs.frames; t++ {
		for _, id := range fs.order {
			g := fs.c.Gates[id]
			fs.implications++
			var gv, bv int8
			switch g.Kind {
			case gates.KInput:
				gv = fs.pi[t][piIx[id]]
				bv = gv
			case gates.KDFF:
				if t == 0 {
					gv, bv = v0, v0 // reset state
				} else {
					// Q in frame t is D of frame t-1, with a possible
					// fault on the D pin.
					d := g.In[0]
					gv = fs.good[t-1][d]
					bv = fs.bad[t-1][d]
					if fs.flt.Gate == id && fs.flt.Pin == 0 {
						bv = bool2v(fs.flt.Val)
					}
				}
			default:
				insG = insG[:0]
				insB = insB[:0]
				for pin, in := range g.In {
					pg := fs.good[t][in]
					pb := fs.bad[t][in]
					if fs.flt.Gate == id && fs.flt.Pin == pin {
						pb = bool2v(fs.flt.Val)
					}
					insG = append(insG, pg)
					insB = append(insB, pb)
				}
				gv = eval3(g.Kind, insG)
				bv = eval3(g.Kind, insB)
			}
			if fs.flt.Gate == id && fs.flt.Pin < 0 {
				bv = bool2v(fs.flt.Val)
			}
			fs.good[t][id] = gv
			fs.bad[t][id] = bv
		}
	}
}

// detected reports whether any primary output in any frame shows a binary
// good/bad difference.
func (fs *frameSim) detected() bool {
	for t := 0; t < fs.frames; t++ {
		for _, o := range fs.c.Outputs {
			g, b := fs.good[t][o], fs.bad[t][o]
			if g != vX && b != vX && g != b {
				return true
			}
		}
	}
	return false
}

func (fs *frameSim) siteNet() int {
	if fs.flt.Pin < 0 {
		return fs.flt.Gate
	}
	return fs.c.Gates[fs.flt.Gate].In[fs.flt.Pin]
}

func (fs *frameSim) activated() (bool, bool) {
	site := fs.siteNet()
	stuck := bool2v(fs.flt.Val)
	conflict := true
	for t := 0; t < fs.frames; t++ {
		g := fs.good[t][site]
		if g != vX && g != stuck {
			return true, false
		}
		if g == vX {
			conflict = false
		}
	}
	return false, conflict
}

// objective scans every gate of every frame for the D-frontier.
func (fs *frameSim) objective() (gate, frame int, val int8, ok bool) {
	act, _ := fs.activated()
	if !act {
		want := inv3(bool2v(fs.flt.Val))
		site := fs.siteNet()
		for t := 0; t < fs.frames; t++ {
			if fs.good[t][site] == vX {
				return site, t, want, true
			}
		}
		return 0, 0, 0, false
	}
	bestGate, bestFrame := -1, -1
	bestDist := 1 << 30
	for t := 0; t < fs.frames; t++ {
		for _, id := range fs.order {
			g := fs.c.Gates[id]
			if g.Kind == gates.KInput || g.Kind == gates.KDFF || g.Kind == gates.KConst0 || g.Kind == gates.KConst1 {
				continue
			}
			if fs.good[t][id] != vX && fs.bad[t][id] != vX {
				continue
			}
			hasD := false
			for pin, in := range g.In {
				a, b := fs.good[t][in], fs.bad[t][in]
				if id == fs.flt.Gate && pin == fs.flt.Pin {
					b = bool2v(fs.flt.Val)
				}
				if a != vX && b != vX && a != b {
					hasD = true
					break
				}
			}
			if !hasD {
				continue
			}
			if fs.obsDist[id] < bestDist {
				bestDist = fs.obsDist[id]
				bestGate, bestFrame = id, t
			}
		}
	}
	if bestGate < 0 {
		want := inv3(bool2v(fs.flt.Val))
		site := fs.siteNet()
		for t := 0; t < fs.frames; t++ {
			if fs.good[t][site] == vX {
				return site, t, want, true
			}
		}
		return 0, 0, 0, false
	}
	g := fs.c.Gates[bestGate]
	nc, has := nonControlling(gates.Op(g.Kind))
	for _, in := range g.In {
		if fs.good[bestFrame][in] == vX {
			if has {
				return in, bestFrame, nc, true
			}
			return in, bestFrame, v0, true
		}
	}
	return 0, 0, 0, false
}

func (fs *frameSim) backtrace(gate, frame int, val int8) (pi, piFrame int, piVal int8, ok bool) {
	piIx := fs.piIx
	id, t, v := gate, frame, val
	for depth := 0; depth < len(fs.c.Gates)*fs.frames+8; depth++ {
		g := fs.c.Gates[id]
		switch g.Kind {
		case gates.KInput:
			k := piIx[id]
			if fs.pi[t][k] != vX {
				return 0, 0, 0, false
			}
			return k, t, v, true
		case gates.KConst0, gates.KConst1:
			return 0, 0, 0, false
		case gates.KDFF:
			if t == 0 {
				return 0, 0, 0, false
			}
			id, t = g.In[0], t-1
			continue
		case gates.KNot, gates.KNand, gates.KNor, gates.KXnor:
			v = inv3(v)
		}
		var xs []int
		for _, in := range g.In {
			if fs.good[t][in] == vX {
				xs = append(xs, in)
			}
		}
		if len(xs) == 0 {
			return 0, 0, 0, false
		}
		next := xs[0]
		if fs.rng != nil && len(xs) > 1 {
			next = xs[fs.rng.Intn(len(xs))]
		}
		id = next
		if v == vX {
			v = v0
		}
	}
	return 0, 0, 0, false
}

// refPodem is the reference PODEM loop over frameSim.
func refPodem(c *gates.Circuit, flt fault.Fault, frames, backtrackLimit int, rng *rand.Rand) (*podemResult, error) {
	fs, err := newFrameSim(c, flt, frames)
	if err != nil {
		return nil, err
	}
	fs.rng = rng
	var stack []decision
	res := &podemResult{}
	for {
		fs.simulate()
		if fs.detected() {
			res.Success = true
			res.Vectors = fs.pi
			res.Implications = fs.implications
			return res, nil
		}
		_, conflict := fs.activated()
		var gate, frame int
		var val int8
		objOK := false
		if !conflict {
			gate, frame, val, objOK = fs.objective()
		}
		advanced := false
		if objOK {
			if pi, pf, pv, ok := fs.backtrace(gate, frame, val); ok {
				fs.pi[pf][pi] = pv
				stack = append(stack, decision{pi: pi, frame: pf, val: pv})
				advanced = true
			}
		}
		if advanced {
			continue
		}
		for {
			if len(stack) == 0 {
				res.Implications = fs.implications
				res.Backtracks++
				return res, nil
			}
			top := &stack[len(stack)-1]
			if !top.flipped {
				top.flipped = true
				top.val = inv3(top.val)
				fs.pi[top.frame][top.pi] = top.val
				res.Backtracks++
				break
			}
			fs.pi[top.frame][top.pi] = vX
			stack = stack[:len(stack)-1]
		}
		if res.Backtracks > backtrackLimit {
			res.Aborted = true
			res.Implications = fs.implications
			return res, nil
		}
	}
}

// refDetects replays a binary test sequence (only bit 0 of each word
// meaningful) on the reference evaluator and reports whether the fault
// shows at a primary output.
func refDetects(t *testing.T, c *gates.Circuit, f fault.Fault, seq [][]uint64) bool {
	t.Helper()
	fs, err := newFrameSim(c, f, len(seq))
	if err != nil {
		t.Fatal(err)
	}
	for tt, row := range seq {
		for k, w := range row {
			fs.pi[tt][k] = int8(w & 1)
		}
	}
	fs.simulate()
	return fs.detected()
}

// diffDesign is one netlist of the differential suite with the frame cap
// the facade's TestDesignCtx would give it.
type diffDesign struct {
	name      string
	c         *gates.Circuit
	maxFrames int
}

// paperDesigns caches the synthesized designs the differential tests
// share, keyed by name and width.
var paperDesigns sync.Map

// paperDesign synthesizes a benchmark (or gen: spec) with the paper's
// algorithm and generates its normal-mode netlist, once per test binary.
func paperDesign(t *testing.T, name string, width int) diffDesign {
	t.Helper()
	type entry struct {
		once sync.Once
		d    diffDesign
		err  error
	}
	key := fmt.Sprintf("%s-%d", name, width)
	v, _ := paperDesigns.LoadOrStore(key, &entry{})
	e := v.(*entry)
	e.once.Do(func() {
		g, err := dfg.ByName(name, width)
		if err != nil {
			e.err = err
			return
		}
		par := core.DefaultParams(width)
		par.Workers = 1
		par.LoopSignal = g.Loop
		res, err := core.RunCtx(context.Background(), core.MethodOurs, g, par)
		if err != nil {
			e.err = err
			return
		}
		nl, err := rtl.Generate(res.Design, width, rtl.NormalMode)
		if err != nil {
			e.err = err
			return
		}
		e.d = diffDesign{key, nl.C, nl.ATPGFrames(0)}
	})
	if e.err != nil {
		t.Fatal(e.err)
	}
	return e.d
}

// diffGenSpecs are the pinned generated designs of the differential
// suite: every mix and shape, loops and conditionals included.
var diffGenSpecs = []dfggen.Spec{
	{Seed: 2001, Ops: 12, Mix: "arith", Shape: "deep"},
	{Seed: 2002, Ops: 14, Mix: "mul", Shape: "wide", Fanout: 2},
	{Seed: 2003, Ops: 12, Mix: "logic", Shape: "mesh", Fanout: 3},
	{Seed: 2004, Ops: 13, Mix: "cmp", Shape: "diamond", Cond: true},
	{Seed: 2005, Ops: 15, Mix: "mixed", Shape: "deep", Loop: true},
	{Seed: 2006, Ops: 12, Mix: "diffeq", Shape: "wide", Loop: true},
	{Seed: 2007, Ops: 16, Mix: "mixed", Shape: "mesh", Fanout: 4, Cond: true},
	{Seed: 2008, Ops: 10, Mix: "arith", Shape: "diamond", Fanout: 2},
}

// TestPodemMatchesReference is the differential test of the event-driven
// searcher: for every fault of the suite, at 2 and 4 frames as well as at
// the campaign's window, and for every restart, it must return exactly
// what the full-resimulation reference returns. One searcher serves each
// design's whole fault list, so state carried from search to search is
// exercised too. Under -short or the race detector every fault list is
// sampled down to a few faults.
func TestPodemMatchesReference(t *testing.T) {
	// The suite must exercise every way a search ends.
	var successes, aborts, exhaustions atomic.Int64
	t.Cleanup(func() {
		if successes.Load() == 0 || aborts.Load() == 0 || exhaustions.Load() == 0 {
			t.Errorf("searches: %d successes, %d aborts, %d exhausted trees; every outcome must be compared",
				successes.Load(), aborts.Load(), exhaustions.Load())
		}
	})
	type job struct {
		bench    string
		width    int
		sample   int // 0 = every collapsed fault
		restarts int
	}
	// The full fault lists run the deterministic attempt at every window;
	// the sampled ones add a randomized restart. A tighter backtrack
	// budget than the campaign default keeps the reference's cost within
	// the tier-1 time: searches still backtrack, abort, exhaust or
	// succeed.
	jobs := []job{
		{dfg.BenchEx, 4, 0, 0},
		{dfg.BenchDct, 4, 0, 0},
		{dfg.BenchDiffeq, 4, 0, 0},
		{dfg.BenchEWF, 4, 40, 1},
		{dfg.BenchEx, 8, 20, 1},
		{dfg.BenchDct, 8, 20, 1},
		{dfg.BenchDiffeq, 8, 20, 1},
	}
	for _, spec := range diffGenSpecs {
		jobs = append(jobs, job{spec.Name(), 4, 20, 1})
	}
	cfg := DefaultConfig(1998)
	cfg.BacktrackLimit = 2
	for _, j := range jobs {
		j := j
		if testing.Short() || raceEnabled {
			j.sample = 6
		}
		t.Run(fmt.Sprintf("%s-%d", j.bench, j.width), func(t *testing.T) {
			t.Parallel()
			d := paperDesign(t, j.bench, j.width)
			p, err := d.c.Compile()
			if err != nil {
				t.Fatal(err)
			}
			s := newSearcher(p, d.maxFrames)
			flist := fault.Sample(fault.Collapse(d.c), j.sample)
			for i, f := range flist {
				for _, frames := range []int{2, 4, d.maxFrames} {
					for restart := 0; restart <= j.restarts; restart++ {
						rngFor := func() *rand.Rand {
							if restart == 0 {
								return nil
							}
							return rand.New(rand.NewSource(cfg.Seed + int64(i)*1009 + int64(restart)))
						}
						want, err := refPodem(d.c, f, frames, cfg.BacktrackLimit, rngFor())
						if err != nil {
							t.Fatal(err)
						}
						got := s.podem(f, frames, cfg.BacktrackLimit, rngFor())
						if got.Success != want.Success || got.Aborted != want.Aborted ||
							got.Implications != want.Implications || got.Backtracks != want.Backtracks ||
							!reflect.DeepEqual(got.Vectors, want.Vectors) {
							t.Fatalf("fault %d (%v), %d frames, restart %d:\n got %+v\nwant %+v",
								i, f, frames, restart, got, want)
						}
						switch {
						case got.Success:
							successes.Add(1)
						case got.Aborted:
							aborts.Add(1)
						default:
							exhaustions.Add(1)
						}
					}
				}
			}
		})
	}
}

// TestCampaignMatchesReference runs whole campaigns on the event-driven
// searcher at 1 and 8 workers and on the reference: outcomes, retained
// test set, effort and coverage must be identical. GateEvals is the one
// field that differs by design.
func TestCampaignMatchesReference(t *testing.T) {
	t.Parallel()
	// PODEM detects none of Ex-4's residual faults (its searches abort or
	// run out of frames) and most of EWF-4's.
	detected, failed := 0, 0
	for _, d := range []diffDesign{
		paperDesign(t, dfg.BenchEx, 4),
		paperDesign(t, dfg.BenchEWF, 4),
	} {
		// A tighter search budget than the default keeps the reference
		// campaign within the tier-1 time.
		cfg := DefaultConfig(1998)
		cfg.SampleFaults = 300
		cfg.BacktrackLimit = 8
		cfg.Restarts = 1
		if testing.Short() || raceEnabled {
			cfg.SampleFaults = 60
		}
		cfg.MaxFrames = d.maxFrames
		ref := cfg
		ref.Workers = 1
		ref.testHookPodem = func(f fault.Fault, frames, backtrackLimit int, rng *rand.Rand) (*podemResult, error) {
			pr, err := refPodem(d.c, f, frames, backtrackLimit, rng)
			if err == nil {
				pr.GateEvals = pr.Implications // the reference evaluates everything
			}
			return pr, err
		}
		want, err := RunCtx(context.Background(), d.c, ref)
		if err != nil {
			t.Fatal(err)
		}
		detected += want.DetDetected
		failed += want.Aborted + want.FrameLimited
		for _, workers := range []int{1, 8} {
			cfg.Workers = workers
			got, err := RunCtx(context.Background(), d.c, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got.GateEvals >= want.GateEvals {
				t.Errorf("%s workers=%d: %d gate evaluations, no fewer than the reference's %d",
					d.name, workers, got.GateEvals, want.GateEvals)
			}
			got.GateEvals = want.GateEvals
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s workers=%d: campaign differs from the reference:\n got %+v\nwant %+v", d.name, workers, got, want)
			}
		}
	}
	if detected == 0 || failed == 0 {
		t.Errorf("the reference campaigns have %d PODEM detections and %d failed searches; both outcomes must be compared", detected, failed)
	}
}

// TestPodemTestsDetectTheirFaults is the oracle invariant of PODEM
// successes: the test a campaign generated for an OutcomeDetectedPodem
// fault must detect that fault when replayed through the bit-parallel
// simulator and through the reference evaluator. The two event-driven
// kernels share one compiled program, so only the second check would
// catch a bug they share.
func TestPodemTestsDetectTheirFaults(t *testing.T) {
	t.Parallel()
	names := []string{dfg.BenchEx, dfg.BenchDct, dfg.BenchDiffeq}
	for _, spec := range diffGenSpecs {
		names = append(names, spec.Name())
	}
	if testing.Short() || raceEnabled {
		names = names[3:6]
	}
	tests := 0
	for _, name := range names {
		d := paperDesign(t, name, 4)
		// Without the random phase PODEM has to generate the tests: on
		// these designs it detects none of the faults random patterns
		// leave over.
		cfg := DefaultConfig(1998)
		cfg.SampleFaults = 300
		cfg.RandomBatches = 0
		cfg.MaxFrames = d.maxFrames
		res, err := RunCtx(context.Background(), d.c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		flist := fault.Sample(fault.Collapse(d.c), cfg.SampleFaults)
		var podemFaults []fault.Fault
		for i, o := range res.Outcomes {
			if o == OutcomeDetectedPodem {
				podemFaults = append(podemFaults, flist[i])
			}
		}
		// PODEM tests are the last entries of the test set, committed in
		// fault-index order.
		seqs := res.TestSet[len(res.TestSet)-len(podemFaults):]
		for k, f := range podemFaults {
			tests++
			detected := []bool{false}
			if _, err := logicsim.FaultSimIncrementalWorkers(d.c, []fault.Fault{f}, detected, nil, widenLane(seqs[k]), 0, 1); err != nil {
				t.Fatal(err)
			}
			if !detected[0] {
				t.Errorf("%s: the PODEM test for %v does not detect it under logicsim", d.name, f)
			}
			if !refDetects(t, d.c, f, seqs[k]) {
				t.Errorf("%s: the PODEM test for %v does not detect it under the reference evaluator", d.name, f)
			}
		}
	}
	if tests == 0 {
		t.Errorf("no PODEM tests generated on %s", strings.Join(names, ", "))
	}
	t.Logf("%d PODEM tests replayed", tests)
}
