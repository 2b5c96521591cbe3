package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/dfg"
	"repro/internal/etpn"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/testability"
)

func params() Params { return DefaultParams(8) }

func TestSynthesizeAllBenchmarks(t *testing.T) {
	for _, name := range dfg.BenchmarkNames() {
		g, _ := dfg.ByName(name, 8)
		par := params()
		par.LoopSignal = g.Loop
		r, err := SynthesizeCtx(context.Background(), g, par)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.Design == nil || r.ExecTime <= 0 || r.Area.Total <= 0 {
			t.Errorf("%s: incomplete result %+v", name, r)
		}
		if err := r.Design.Validate(); err != nil {
			t.Errorf("%s: invalid final design: %v", name, err)
		}
		if len(r.Trace) == 0 {
			t.Errorf("%s: no mergers committed", name)
		}
	}
}

func TestAllMethodsAllBenchmarks(t *testing.T) {
	for _, name := range dfg.BenchmarkNames() {
		if testing.Short() && name == dfg.BenchEWF {
			continue
		}
		g, _ := dfg.ByName(name, 8)
		par := params()
		par.LoopSignal = g.Loop
		for _, method := range Methods() {
			r, err := RunCtx(context.Background(), method, g, par)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, method, err)
			}
			if r.Method != method {
				t.Errorf("%s: method label %q, want %q", name, r.Method, method)
			}
			if err := r.Design.Validate(); err != nil {
				t.Errorf("%s/%s: %v", name, method, err)
			}
		}
	}
}

func TestRunUnknownMethod(t *testing.T) {
	g := dfg.Ex(8)
	if _, err := RunCtx(context.Background(), "nosuch", g, params()); err == nil {
		t.Fatal("expected unknown-method error")
	}
}

// The paper's Table 1: with the area-optimized latency (Slack 0), Ex is
// synthesized onto two multipliers, one subtracter and one adder, with
// five or six registers.
func TestExMatchesPaperModuleShape(t *testing.T) {
	g := dfg.Ex(8)
	r, err := SynthesizeCtx(context.Background(), g, params())
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, m := range r.Design.Alloc.Modules {
		counts[m.Class]++
	}
	if counts["*"] != 2 {
		t.Errorf("Ex multipliers = %d, paper has 2", counts["*"])
	}
	if counts["-"] != 1 {
		t.Errorf("Ex subtracters = %d, paper has 1", counts["-"])
	}
	if counts["+"] != 1 {
		t.Errorf("Ex adders = %d, paper has 1", counts["+"])
	}
	if n := r.Design.Alloc.NumRegs(); n < 4 || n > 7 {
		t.Errorf("Ex registers = %d, paper has 5", n)
	}
	if r.ExecTime != 4 {
		t.Errorf("Ex execution time = %d control steps, want 4 (ASAP length, Slack 0)", r.ExecTime)
	}
}

// Diffeq under Slack 0 must reach the paper's module allocation: two
// multipliers holding three multiplications each, one adder, one
// subtracter, one comparator.
func TestDiffeqMatchesPaperModuleShape(t *testing.T) {
	g := dfg.Diffeq(8)
	par := params()
	par.LoopSignal = g.Loop
	r, err := SynthesizeCtx(context.Background(), g, par)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	sizes := map[string][]int{}
	for _, m := range r.Design.Alloc.Modules {
		counts[m.Class]++
		sizes[m.Class] = append(sizes[m.Class], len(m.Ops))
	}
	if counts["*"] != 2 {
		t.Errorf("Diffeq multipliers = %d, paper has 2 (groups of 3)", counts["*"])
	}
	if counts["-"] != 1 || counts["+"] != 1 || counts["<"] != 1 {
		t.Errorf("Diffeq -/+/< modules = %d/%d/%d, paper has 1/1/1", counts["-"], counts["+"], counts["<"])
	}
	for _, n := range sizes["*"] {
		if n != 3 {
			t.Errorf("Diffeq multiplier holds %d mults, paper's hold 3", n)
		}
	}
}

// Semantics preservation: every method's synthesized design computes the
// same function as the behavioural specification.
func TestSemanticsPreservedAllMethods(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, name := range dfg.BenchmarkNames() {
		g, _ := dfg.ByName(name, 16)
		par := DefaultParams(16)
		par.LoopSignal = g.Loop
		for _, method := range Methods() {
			if testing.Short() && (name == dfg.BenchEWF && method == MethodOurs) {
				continue
			}
			r, err := RunCtx(context.Background(), method, g, par)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, method, err)
			}
			for trial := 0; trial < 10; trial++ {
				in := map[string]uint64{}
				for _, v := range g.Inputs() {
					in[g.Value(v).Name] = rng.Uint64()
				}
				want, err := g.Interpret(16, in)
				if err != nil {
					t.Fatal(err)
				}
				got, err := r.Design.Simulate(16, in)
				if err != nil {
					t.Fatalf("%s/%s: %v", name, method, err)
				}
				for k, w := range want {
					if got[k] != w {
						t.Fatalf("%s/%s: output %s = %d, want %d", name, method, k, got[k], w)
					}
				}
			}
		}
	}
}

// The merger loop must strictly reduce hardware: final module+register
// count below the 1:1 default.
func TestMergerReducesNodeCount(t *testing.T) {
	g := dfg.Dct(8)
	r, err := SynthesizeCtx(context.Background(), g, params())
	if err != nil {
		t.Fatal(err)
	}
	oneToOne := g.NumNodes() // modules in the default allocation
	if r.Design.Alloc.NumModules() >= oneToOne {
		t.Errorf("no module merging happened: %d modules", r.Design.Alloc.NumModules())
	}
	if r.Design.Alloc.NumRegs() >= g.NumValues() {
		t.Errorf("no register merging happened: %d registers", r.Design.Alloc.NumRegs())
	}
}

// Conventional connectivity-driven selection "results in a very hard to
// test design because many loops, especially self-loops, are generated"
// (paper §3). With the rescheduler held fixed, the balance principle must
// produce designs with no more self-loops on a clear majority of the
// benchmark suite. (The end-to-end fault-coverage comparison lives in the
// experiment harness; this test checks the structural mechanism.)
func TestBalanceAvoidsSelfLoops(t *testing.T) {
	wins, losses := 0, 0
	for _, name := range []string{dfg.BenchEx, dfg.BenchDct, dfg.BenchDiffeq, dfg.BenchPaulin, dfg.BenchTseng} {
		g, _ := dfg.ByName(name, 8)
		par := params()
		par.LoopSignal = g.Loop
		ours, err := SynthesizeCtx(context.Background(), g, par)
		if err != nil {
			t.Fatal(err)
		}
		conn := par
		conn.Selection = SelectConnectivity
		conv, err := SynthesizeCtx(context.Background(), g, conn)
		if err != nil {
			t.Fatal(err)
		}
		o, c := ours.Design.SelfLoops(), conv.Design.SelfLoops()
		wins += o
		losses += c
		t.Logf("%s: balance self-loops %d (mt %.4f) vs connectivity %d (mt %.4f)",
			name, o, testability.MeanTestability(ours.Design, ours.Metrics),
			c, testability.MeanTestability(conv.Design, conv.Metrics))
	}
	// Producer-consumer module groups make some self-loops intrinsic (the
	// paper's own Table 3 allocation has them); the requirement here is
	// that balance-driven merging does not create systematically loopier
	// data paths than connectivity-driven merging. The discriminative
	// comparison — fault coverage — is run by the experiment harness.
	if wins > losses+2 {
		t.Errorf("balance selection created %d self-loops vs connectivity's %d across the suite", wins, losses)
	}
}

// Slack allows deeper merging: with more latency slack the design needs
// no more modules than with none.
func TestSlackEnablesFewerModules(t *testing.T) {
	g := dfg.Ex(8)
	tight, err := SynthesizeCtx(context.Background(), g, params())
	if err != nil {
		t.Fatal(err)
	}
	par := params()
	par.Slack = 4
	loose, err := SynthesizeCtx(context.Background(), g, par)
	if err != nil {
		t.Fatal(err)
	}
	if loose.Design.Alloc.NumModules() > tight.Design.Alloc.NumModules() {
		t.Errorf("slack 4 gave %d modules, slack 0 gave %d",
			loose.Design.Alloc.NumModules(), tight.Design.Alloc.NumModules())
	}
}

// Frozen rescheduling (phase-separated ablation) must never move an
// operation: execution time stays at the ASAP length and merging is
// limited.
func TestFrozenRescheduleAblation(t *testing.T) {
	g := dfg.Dct(8)
	par := params()
	par.Reschedule = RescheduleFrozen
	frozen, err := SynthesizeCtx(context.Background(), g, par)
	if err != nil {
		t.Fatal(err)
	}
	integrated, err := SynthesizeCtx(context.Background(), g, params())
	if err != nil {
		t.Fatal(err)
	}
	if frozen.Design.Alloc.NumModules() < integrated.Design.Alloc.NumModules() {
		t.Errorf("frozen scheduling merged more modules (%d) than integrated (%d)",
			frozen.Design.Alloc.NumModules(), integrated.Design.Alloc.NumModules())
	}
	// The frozen flow's schedule must be the ASAP schedule.
	asap, _ := sched.NewProblem(g).ASAP()
	for _, n := range g.Nodes() {
		if frozen.Design.Sched.Step[n.ID] != asap.Step[n.ID] {
			t.Errorf("frozen flow moved %s from %d to %d", n.Name, asap.Step[n.ID], frozen.Design.Sched.Step[n.ID])
		}
	}
}

// Paper §5: the chosen parameters (k, α, β) "do not influence so much the
// final results" — all three published parameter sets must give the same
// module shape on Ex.
func TestParameterInsensitivityEx(t *testing.T) {
	shapes := map[string]bool{}
	for _, kab := range [][3]float64{{3, 2, 1}, {3, 10, 1}, {3, 1, 10}} {
		g := dfg.Ex(8)
		par := params()
		par.K = int(kab[0])
		par.Alpha = kab[1]
		par.Beta = kab[2]
		r, err := SynthesizeCtx(context.Background(), g, par)
		if err != nil {
			t.Fatal(err)
		}
		counts := map[string]int{}
		for _, m := range r.Design.Alloc.Modules {
			counts[m.Class]++
		}
		shapes[fmtShape(counts)] = true
	}
	if len(shapes) != 1 {
		t.Errorf("parameter sets produced %d distinct module shapes: %v", len(shapes), shapes)
	}
}

func fmtShape(counts map[string]int) string {
	return "" +
		"*" + string(rune('0'+counts["*"])) +
		"-" + string(rune('0'+counts["-"])) +
		"+" + string(rune('0'+counts["+"]))
}

// The final designs of all methods must expose positive testability on
// every register and module (no unreachable hardware).
func TestFinalDesignsFullyTestable(t *testing.T) {
	for _, name := range []string{dfg.BenchEx, dfg.BenchDiffeq} {
		g, _ := dfg.ByName(name, 8)
		par := params()
		par.LoopSignal = g.Loop
		for _, method := range Methods() {
			r, err := RunCtx(context.Background(), method, g, par)
			if err != nil {
				t.Fatal(err)
			}
			for _, nd := range r.Design.Nodes {
				if nd.Kind != etpn.KindRegister && nd.Kind != etpn.KindModule {
					continue
				}
				if r.Metrics.CC[nd.ID] <= 0 || r.Metrics.CO[nd.ID] <= 0 {
					t.Errorf("%s/%s: node %s untestable (CC=%f CO=%f)",
						name, method, nd.Name, r.Metrics.CC[nd.ID], r.Metrics.CO[nd.ID])
				}
			}
		}
	}
}

func TestDefaultParams(t *testing.T) {
	p := DefaultParams(16)
	if p.K != 3 || p.Alpha != 2 || p.Beta != 1 || p.Width != 16 {
		t.Errorf("unexpected defaults: %+v", p)
	}
}

// FDS and mobility-path scheduling must genuinely differ somewhere: EWF
// has scheduling slack on its non-critical additions, and the two
// baselines take different schedules there.
func TestApproachesDifferOnEWF(t *testing.T) {
	g := dfg.EWF(8)
	par := params()
	r1, err := RunCtx(context.Background(), MethodApproach1, g, par)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunCtx(context.Background(), MethodApproach2, g, par)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for _, n := range g.Nodes() {
		if r1.Design.Sched.Step[n.ID] != r2.Design.Sched.Step[n.ID] {
			same = false
		}
	}
	if same {
		t.Error("FDS and mobility-path schedules identical on EWF despite slack")
	}
}

// TestFinishedRunDerivesOneDesign pins how many designs a run builds: one
// per finished run, whatever the merger loop's metrics cache misses,
// because an analysis reads the state's wiring and only finish builds a
// design. Ours and CAMAD finish once per tie policy; the phase-separated
// baselines run without the cache and finish once.
func TestFinishedRunDerivesOneDesign(t *testing.T) {
	for _, c := range []struct {
		method string
		runs   int64
	}{
		{MethodOurs, int64(len(tiePolicies))}, {MethodCAMAD, int64(len(tiePolicies))},
		{MethodApproach1, 1}, {MethodApproach2, 1},
	} {
		par := DefaultParams(4)
		par.Workers = 1
		par.Stats = stats.New()
		if _, err := RunCtx(context.Background(), c.method, dfg.Ex(4), par); err != nil {
			t.Fatal(err)
		}
		if got := par.Stats.Value("core.designs"); got != c.runs {
			t.Errorf("%s: core.designs = %d, want %d finished runs (%d analysis misses)",
				c.method, got, c.runs, par.Stats.Value("cache.metrics.miss"))
		}
	}
}

// Diffeq's execution-time estimate counts LoopBound back-edge firings
// plus the exiting pass, each one body length; the bound scales it
// linearly.
func TestExecutionTimeLinearInLoopBound(t *testing.T) {
	g := dfg.Diffeq(8)
	par := params()
	par.LoopSignal = g.Loop
	r, err := SynthesizeCtx(context.Background(), g, par)
	if err != nil {
		t.Fatal(err)
	}
	bodyLen := r.Design.Sched.Len
	// The paper's bound of 4: four back-edge firings and the exit pass.
	if want := 5 * bodyLen; r.ExecTime != want {
		t.Errorf("exec %d, want 5 × body length %d", r.ExecTime, bodyLen)
	}
	for lb := 1; lb <= 4; lb++ {
		if got, want := etpn.ExecutionTime(r.Design.Sched, r.Design.LoopSignal, lb), (lb+1)*bodyLen; got != want {
			t.Errorf("loop bound %d: exec %d, want %d", lb, got, want)
		}
	}
}
