package atpg

import (
	"context"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/alloc"
	"repro/internal/dfg"
	"repro/internal/etpn"
	"repro/internal/fault"
	"repro/internal/gates"
	"repro/internal/logicsim"
	"repro/internal/rtl"
	"repro/internal/sched"
)

// andCircuit builds z = AND(x, y).
func andCircuit(t *testing.T) (*gates.Circuit, int, int, int) {
	t.Helper()
	b := gates.NewBuilder()
	x := b.Input("x")
	y := b.Input("y")
	z := b.And(x, y)
	b.Output("z", z)
	c, err := b.Done()
	if err != nil {
		t.Fatal(err)
	}
	return c, x, y, z
}

func TestPodemCombinationalBasics(t *testing.T) {
	c, x, _, z := andCircuit(t)
	cases := []struct {
		f        fault.Fault
		testable bool
	}{
		{fault.Fault{Gate: z, Pin: -1, Val: false}, true}, // needs 1,1
		{fault.Fault{Gate: z, Pin: -1, Val: true}, true},  // needs a 0 input
		{fault.Fault{Gate: z, Pin: 0, Val: true}, true},   // x=0, y=1
		{fault.Fault{Gate: z, Pin: 1, Val: false}, true},  // y=1, x=1
		{fault.Fault{Gate: x, Pin: -1, Val: false}, true},
	}
	for _, cse := range cases {
		pr := runPodem(t, c, cse.f, 1, 20, nil)
		if pr.Success != cse.testable {
			t.Errorf("fault %v: success=%v, want %v", cse.f, pr.Success, cse.testable)
		}
		if pr.Success {
			// Verify the generated vector actually detects the fault.
			if !vectorDetects(t, c, cse.f, pr.Vectors) {
				t.Errorf("fault %v: generated vector does not detect", cse.f)
			}
		}
	}
}

// runPodem runs one PODEM attempt on a fresh searcher for c.
func runPodem(t *testing.T, c *gates.Circuit, f fault.Fault, frames, backtrackLimit int, rng *rand.Rand) *podemResult {
	t.Helper()
	p, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return newSearcher(p, frames).podem(f, frames, backtrackLimit, rng)
}

// vectorDetects replays a PODEM assignment on the bit-parallel simulator
// and checks good/faulty divergence.
func vectorDetects(t *testing.T, c *gates.Circuit, f fault.Fault, assign [][]int8) bool {
	t.Helper()
	vec := vectorsFromAssignment(len(c.Inputs), assign)
	detected := make([]bool, 1)
	if _, err := logicsim.FaultSimIncrementalWorkers(c, []fault.Fault{f}, detected, nil, vec, 0, 0); err != nil {
		t.Fatal(err)
	}
	return detected[0]
}

func TestPodemUntestableRedundancy(t *testing.T) {
	// z = OR(x, NOT x) is constantly 1: z s-a-1 is untestable.
	b := gates.NewBuilder()
	x := b.Input("x")
	z := b.Or(x, b.Not(x))
	b.Output("z", z)
	c, err := b.Done()
	if err != nil {
		t.Fatal(err)
	}
	pr := runPodem(t, c, fault.Fault{Gate: z, Pin: -1, Val: true}, 1, 50, nil)
	if pr.Success {
		t.Fatal("redundant fault reported testable")
	}
	if pr.Aborted {
		t.Fatal("tiny search space should exhaust, not abort")
	}
}

func TestPodemSequentialDepth(t *testing.T) {
	// A 3-deep DFF pipeline: q3 <= q2 <= q1 <= x, out = q3. A fault on
	// q1's D pin needs 3+ frames to reach the output.
	b := gates.NewBuilder()
	x := b.Input("x")
	q1 := b.DFF("q1")
	q2 := b.DFF("q2")
	q3 := b.DFF("q3")
	b.SetD(q1, x)
	b.SetD(q2, q1)
	b.SetD(q3, q2)
	b.Output("o", q3)
	c, err := b.Done()
	if err != nil {
		t.Fatal(err)
	}
	f := fault.Fault{Gate: q1, Pin: 0, Val: false}
	// 4 frames: inject at frame 0/1, observe at frame 3.
	pr := runPodem(t, c, f, 4, 50, nil)
	if !pr.Success {
		t.Fatal("pipeline fault not found with sufficient frames")
	}
	if !vectorDetects(t, c, f, pr.Vectors) {
		t.Fatal("generated sequence does not detect")
	}
	// With only 2 frames the fault effect cannot reach the output.
	pr2 := runPodem(t, c, f, 2, 50, nil)
	if pr2.Success {
		t.Fatal("2 frames cannot expose a depth-3 fault")
	}
}

func TestPodemGeneratedVectorsAlwaysDetect(t *testing.T) {
	// Property over a synthesized datapath: every PODEM success must be
	// confirmed by the independent fault simulator.
	c := benchCircuit(t, dfg.BenchTseng, 4)
	flist := fault.Sample(fault.Collapse(c), 120)
	confirmed, successes := 0, 0
	for i := range flist {
		for restart := 0; restart <= 2; restart++ {
			var rng *rand.Rand
			if restart > 0 {
				rng = rand.New(rand.NewSource(int64(i*7 + restart)))
			}
			pr := runPodem(t, c, flist[i], 6, 40, rng)
			if pr.Success {
				successes++
				if vectorDetects(t, c, flist[i], pr.Vectors) {
					confirmed++
				} else {
					t.Errorf("fault %v: PODEM vector fails fault simulation", flist[i])
				}
				break
			}
			if !pr.Aborted {
				break
			}
		}
	}
	if successes == 0 {
		t.Fatal("PODEM found no tests at all on a small datapath")
	}
	if confirmed != successes {
		t.Fatalf("only %d of %d PODEM tests confirmed", confirmed, successes)
	}
}

// TestSimulateZeroAllocs pins the steady-state event-driven implication
// step at zero allocations: once a warm-up cycle has grown the searcher's
// queues and D lists, assigning, flipping and releasing primary inputs and
// re-simulating allocate nothing.
func TestSimulateZeroAllocs(t *testing.T) {
	c := benchCircuit(t, dfg.BenchTseng, 4)
	p, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	const frames = 4
	s := newSearcher(p, frames)
	s.reset(fault.Collapse(c)[0], frames, nil)
	s.simulate()
	// One cycle sets every input of every frame to 0, 1 and back to X, so
	// the searcher's state repeats from cycle to cycle.
	steps := frames * len(c.Inputs) * 3
	k := 0
	step := func() {
		i := k % steps
		s.setPI(i/3/len(c.Inputs), i/3%len(c.Inputs), []int8{v0, v1, vX}[i%3])
		s.simulate()
		k++
	}
	for i := 0; i < steps; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(steps, step); allocs != 0 {
		t.Errorf("incremental simulate allocates %.2f times per step, want 0", allocs)
	}
}

// benchCircuit synthesizes a benchmark with left-edge allocation and
// generates its normal-mode netlist.
func benchCircuit(t *testing.T, name string, width int) *gates.Circuit {
	t.Helper()
	g, err := dfg.ByName(name, width)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.NewProblem(g).ASAP()
	if err != nil {
		t.Fatal(err)
	}
	life := alloc.Lifetimes(g, s)
	regOf, n := alloc.RegisterLeftEdge(g, life)
	a := alloc.BindModules(g, s, sched.ExactClass, regOf, n)
	d, err := etpn.Build(g, s, a, life, "")
	if err != nil {
		t.Fatal(err)
	}
	nl, err := rtl.Generate(d, width, rtl.NormalMode)
	if err != nil {
		t.Fatal(err)
	}
	return nl.C
}

func TestCampaignTseng(t *testing.T) {
	c := benchCircuit(t, dfg.BenchTseng, 4)
	cfg := DefaultConfig(7)
	cfg.SampleFaults = 300
	cfg.RandomBatches = 2
	res, err := RunCtx(context.Background(), c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalFaults == 0 || res.TotalFaults > 300 {
		t.Fatalf("fault count %d", res.TotalFaults)
	}
	if res.Coverage < 0.7 {
		t.Errorf("coverage %.2f unexpectedly low for a small datapath", res.Coverage)
	}
	if res.Coverage > 1 || res.Detected() > res.TotalFaults {
		t.Errorf("inconsistent result %+v", res)
	}
	if res.TestCycles <= 0 || res.Effort <= 0 {
		t.Errorf("missing effort/cycle accounting: %+v", res)
	}
	if !strings.Contains(res.String(), "coverage") {
		t.Error("result rendering broken")
	}
}

func TestCampaignReproducible(t *testing.T) {
	c := benchCircuit(t, dfg.BenchTseng, 4)
	cfg := DefaultConfig(42)
	cfg.SampleFaults = 150
	cfg.RandomBatches = 1
	cfg.Restarts = 1
	r1, err := RunCtx(context.Background(), c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunCtx(context.Background(), c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Coverage != r2.Coverage || r1.Effort != r2.Effort || r1.TestCycles != r2.TestCycles {
		t.Fatalf("campaign not reproducible: %+v vs %+v", r1, r2)
	}
}

func TestCampaignSeedSensitivity(t *testing.T) {
	c := benchCircuit(t, dfg.BenchTseng, 4)
	cfg1 := DefaultConfig(1)
	cfg1.SampleFaults = 150
	cfg1.RandomBatches = 1
	cfg2 := cfg1
	cfg2.Seed = 2
	r1, err := RunCtx(context.Background(), c, cfg1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunCtx(context.Background(), c, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	// Different seeds should change the random phase somewhere (cycles or
	// detection split), while staying in the same coverage ballpark.
	if r1.Coverage < 0.5 || r2.Coverage < 0.5 {
		t.Errorf("coverage collapsed: %f %f", r1.Coverage, r2.Coverage)
	}
}

func TestMoreRandomBatchesNeverHurtCoverage(t *testing.T) {
	c := benchCircuit(t, dfg.BenchTseng, 4)
	base := DefaultConfig(3)
	base.SampleFaults = 200
	base.RandomBatches = 1
	base.Restarts = 0
	base.MaxFrames = 2
	more := base
	more.RandomBatches = 4
	r1, err := RunCtx(context.Background(), c, base)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunCtx(context.Background(), c, more)
	if err != nil {
		t.Fatal(err)
	}
	if r2.RandomDetected < r1.RandomDetected {
		t.Errorf("more random batches detected fewer faults: %d vs %d", r2.RandomDetected, r1.RandomDetected)
	}
}

// TestMaxFramesClampRegression pins the MaxFrames validation: a campaign
// configured with MaxFrames 0 must behave exactly like MaxFrames 1 (one
// single-frame PODEM window), not silently run a wider window.
func TestMaxFramesClampRegression(t *testing.T) {
	c := benchCircuit(t, dfg.BenchTseng, 4)
	base := DefaultConfig(5)
	base.SampleFaults = 120
	base.RandomBatches = 1
	base.Restarts = 1
	run := func(maxFrames int) *Result {
		cfg := base
		cfg.MaxFrames = maxFrames
		res, err := RunCtx(context.Background(), c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r0, r1 := run(0), run(1)
	if !reflect.DeepEqual(r0, r1) {
		t.Errorf("MaxFrames 0 and 1 diverge:\n%+v\nvs\n%+v", r0, r1)
	}
	// A single-frame window can only produce single-cycle deterministic
	// tests: every deterministic sequence in the retained test set must
	// have length 1 (random-phase sequences keep SeqLen cycles).
	for _, seq := range r0.TestSet {
		if len(seq) != base.SeqLen && len(seq) != 1 {
			t.Errorf("MaxFrames 0 produced a %d-cycle test window", len(seq))
		}
	}
}

// TestCampaignWorkersEquivalence is the determinism contract of the
// parallel engine: any worker count must produce a bit-identical Result.
func TestCampaignWorkersEquivalence(t *testing.T) {
	c := benchCircuit(t, dfg.BenchTseng, 4)
	base := DefaultConfig(9)
	base.SampleFaults = 200
	base.RandomBatches = 2
	run := func(workers int) *Result {
		cfg := base
		cfg.Workers = workers
		res, err := RunCtx(context.Background(), c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(1)
	for _, workers := range []int{2, 4, 8} {
		if got := run(workers); !reflect.DeepEqual(got, want) {
			t.Errorf("Workers=%d diverges from sequential:\n%+v\nvs\n%+v", workers, got, want)
		}
	}
}

func TestEval3TruthTables(t *testing.T) {
	// Three-valued evaluation must agree with binary evaluation on binary
	// inputs and be conservative (X in, X or refined out).
	kinds := []gates.Kind{gates.KAnd, gates.KOr, gates.KNand, gates.KNor, gates.KXor, gates.KXnor}
	for _, k := range kinds {
		for a := int8(0); a <= 2; a++ {
			for b := int8(0); b <= 2; b++ {
				out := eval3(k, []int8{a, b})
				if a != vX && b != vX {
					if out == vX {
						t.Errorf("%v(%d,%d) = X on binary inputs", k, a, b)
					}
					continue
				}
				// Conservativeness: if out is binary, it must equal the
				// value for every completion of the X inputs.
				if out != vX {
					for _, av := range completions(a) {
						for _, bv := range completions(b) {
							if eval3(k, []int8{av, bv}) != out {
								t.Errorf("%v(%d,%d) = %d not justified", k, a, b, out)
							}
						}
					}
				}
			}
		}
	}
	if eval3(gates.KNot, []int8{v0}) != v1 || eval3(gates.KNot, []int8{vX}) != vX {
		t.Error("NOT truth table wrong")
	}
	if eval3(gates.KConst1, nil) != v1 || eval3(gates.KConst0, nil) != v0 {
		t.Error("const evaluation wrong")
	}
	// The dual-rail kernel computes the reference in each lane
	// independently, for every good/faulty combination of the inputs.
	pair := func(g, b int8) uint8 { return rail(g)&goodBit | rail(b)&badBit }
	faulty := func(r uint8) int8 { return good(r >> 1) }
	for _, k := range append(kinds, gates.KBuf, gates.KNot, gates.KConst0, gates.KConst1) {
		arity := 2
		switch k {
		case gates.KBuf, gates.KNot:
			arity = 1
		case gates.KConst0, gates.KConst1:
			arity = 0
		}
		ins := []int32{0, 1}[:arity]
		for code := 0; code < 81; code++ {
			lanes := [4]int8{int8(code % 3), int8(code / 3 % 3), int8(code / 9 % 3), int8(code / 27)}
			vals := []uint8{pair(lanes[0], lanes[1]), pair(lanes[2], lanes[3])}
			r := eval2(gates.Op(k), vals, ins)
			wantG := eval3(k, []int8{lanes[0], lanes[2]}[:arity])
			wantB := eval3(k, []int8{lanes[1], lanes[3]}[:arity])
			if good(r) != wantG || faulty(r) != wantB {
				t.Errorf("%v lanes %v: dual rail gives (%d,%d), want (%d,%d)", k, lanes, good(r), faulty(r), wantG, wantB)
			}
		}
	}
}

func completions(v int8) []int8 {
	if v == vX {
		return []int8{v0, v1}
	}
	return []int8{v}
}

func TestCount(t *testing.T) {
	if count([]bool{true, false, true}) != 2 {
		t.Error("count wrong")
	}
	if count(nil) != 0 {
		t.Error("count of nil wrong")
	}
}

func TestVectorsFromAssignment(t *testing.T) {
	c, _, _, _ := andCircuit(t)
	vec := vectorsFromAssignment(len(c.Inputs), [][]int8{{v1, vX}, {v0, v1}})
	if len(vec) != 2 || vec[0][0] != ^uint64(0) || vec[0][1] != 0 || vec[1][1] != ^uint64(0) {
		t.Errorf("vectors wrong: %v", vec)
	}
}

func TestRunEmptyFaultList(t *testing.T) {
	// A circuit whose outputs are constants yields an empty collapsed
	// fault list in the observable cone... build input-free logic.
	b := gates.NewBuilder()
	x := b.Input("x")
	_ = x
	b.Output("z", b.Const(true))
	c, err := b.Done()
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunCtx(context.Background(), c, DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage != 0 && res.TotalFaults != 0 {
		t.Logf("const circuit: %+v", res) // tolerated: const gate output faults exist
	}
}

// The retained test set must independently reproduce the campaign's
// detections when replayed, and its total length must equal TestCycles.
func TestTestSetReplayReproducesCoverage(t *testing.T) {
	c := benchCircuit(t, dfg.BenchTseng, 4)
	cfg := DefaultConfig(11)
	cfg.SampleFaults = 250
	cfg.RandomBatches = 2
	res, err := RunCtx(context.Background(), c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TestSet) == 0 {
		t.Fatal("campaign retained no test set")
	}
	total := 0
	for _, seq := range res.TestSet {
		total += len(seq)
	}
	if total != res.TestCycles {
		t.Errorf("test set holds %d cycles, TestCycles reports %d", total, res.TestCycles)
	}
	flist := fault.Sample(fault.Collapse(c), cfg.SampleFaults)
	got, err := Replay(c, res.TestSet, flist)
	if err != nil {
		t.Fatal(err)
	}
	if got < res.Detected() {
		t.Errorf("replay detected %d faults, campaign claimed %d", got, res.Detected())
	}
}

// Budget exhaustion must never masquerade as a testability proof: a
// fault abandoned because MaxFrames or BacktrackLimit ran out is
// FrameLimited/BacktrackLimited, and only a combinational tree
// exhaustion may claim OutcomeUntestable. (The constructions behind
// these assertions live in hardening_test.go.)
func TestBudgetExhaustionIsNotUntestable(t *testing.T) {
	// Sequential circuit, frame window too narrow to reach the fault:
	// the search runs out of frames, which proves nothing.
	seq := pipelineCircuit(t)
	cfg := DefaultConfig(5)
	cfg.RandomBatches = 0
	cfg.MaxFrames = 1
	res, err := RunCtx(context.Background(), seq, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Untestable != 0 {
		t.Errorf("frame-starved sequential campaign claims %d untestable faults", res.Untestable)
	}
	for i, o := range res.Outcomes {
		if o == OutcomeUntestable {
			t.Errorf("fault %d: outcome Untestable under an exhausted frame budget", i)
		}
	}
	// Combinational circuit with a genuinely redundant fault: tree
	// exhaustion there is a proof and must be reported as such.
	comb := redundantCircuit(t)
	ccfg := DefaultConfig(5)
	ccfg.RandomBatches = 0
	cres, err := RunCtx(context.Background(), comb, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	if cres.Untestable == 0 {
		t.Error("redundant combinational circuit yields no untestable faults")
	}
	if cres.FrameLimited != 0 {
		t.Errorf("combinational campaign reports %d frame-limited faults", cres.FrameLimited)
	}
}
