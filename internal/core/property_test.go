package core

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dfg"
	"repro/internal/rtl"
	"repro/internal/sched"
)

// randGraph builds a random acyclic behaviour.
func randGraph(rng *rand.Rand, nOps int) *dfg.Graph {
	g := dfg.New("rand", 8)
	pool := []dfg.ValueID{g.Input("i0"), g.Input("i1"), g.Input("i2"), g.Const("k5", 5)}
	kinds := []dfg.OpKind{dfg.OpAdd, dfg.OpSub, dfg.OpMul, dfg.OpAnd, dfg.OpOr, dfg.OpXor}
	for i := 0; i < nOps; i++ {
		k := kinds[rng.Intn(len(kinds))]
		a := pool[rng.Intn(len(pool))]
		b := pool[rng.Intn(len(pool))]
		pool = append(pool, g.Op(k, "", a, b))
	}
	for _, v := range g.Values() {
		if v.Kind == dfg.ValTemp && len(v.Uses) == 0 {
			g.MarkOutput(v.ID)
		}
	}
	return g
}

// Property: the full synthesis pipeline preserves semantics on random
// behaviours — the central invariant of the paper's transformation
// framework ("semantics-preserving transformations", §1).
func TestSynthesizeRandomGraphsPreservesSemantics(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randGraph(rng, 4+rng.Intn(12))
		par := DefaultParams(8)
		par.NoExplore = rng.Intn(2) == 0
		par.Slack = rng.Intn(3)
		r, err := SynthesizeCtx(context.Background(), g, par)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		for trial := 0; trial < 4; trial++ {
			in := map[string]uint64{
				"i0": rng.Uint64(), "i1": rng.Uint64(), "i2": rng.Uint64(),
			}
			want, err := g.Interpret(8, in)
			if err != nil {
				return false
			}
			got, err := r.Design.Simulate(8, in)
			if err != nil {
				t.Logf("seed %d: simulate: %v", seed, err)
				return false
			}
			for k, w := range want {
				if got[k] != w {
					t.Logf("seed %d: output %s = %d, want %d", seed, k, got[k], w)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: every committed merger strictly reduces module+register count,
// so the loop terminates and the trace length bounds the reduction.
func TestMergerMonotonicity(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randGraph(rng, 4+rng.Intn(10))
		par := DefaultParams(8)
		par.NoExplore = true
		r, err := SynthesizeCtx(context.Background(), g, par)
		if err != nil {
			return false
		}
		before := g.NumNodes() // 1:1 modules + regs
		for _, l := range r.Design.Life {
			if l.Stored {
				before++
			}
		}
		after := r.Design.Alloc.NumModules() + r.Design.Alloc.NumRegs()
		return after == before-len(r.Trace)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// CAMAD's paper rows keep singleton registers: the ModulesOnly knob must
// hold for the whole benchmark suite.
func TestCAMADSingletonRegisters(t *testing.T) {
	for _, name := range []string{dfg.BenchEx, dfg.BenchDct, dfg.BenchTseng} {
		g, _ := dfg.ByName(name, 8)
		r, err := RunCtx(context.Background(), MethodCAMAD, g, params())
		if err != nil {
			t.Fatal(err)
		}
		for _, reg := range r.Design.Alloc.Regs {
			if len(reg.Vals) != 1 {
				t.Errorf("%s: CAMAD register holds %d values", name, len(reg.Vals))
			}
		}
		// Modules must still be shared (the connectivity merger ran).
		if r.Design.Alloc.NumModules() >= g.NumNodes() {
			t.Errorf("%s: CAMAD did not merge modules", name)
		}
	}
}

// Gate-level equivalence holds for random graphs through the full
// pipeline including netlist optimization.
func TestRandomGraphsGateLevelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 8; trial++ {
		g := randGraph(rng, 4+rng.Intn(8))
		par := DefaultParams(8)
		par.NoExplore = true
		r, err := SynthesizeCtx(context.Background(), g, par)
		if err != nil {
			t.Fatal(err)
		}
		nl, err := rtl.Generate(r.Design, 8, rtl.NormalMode)
		if err != nil {
			t.Fatal(err)
		}
		in := map[string]uint64{"i0": rng.Uint64(), "i1": rng.Uint64(), "i2": rng.Uint64()}
		want, err := g.Interpret(8, in)
		if err != nil {
			t.Fatal(err)
		}
		got, err := nl.SimulatePass(in)
		if err != nil {
			t.Fatal(err)
		}
		for k, w := range want {
			if got[k] != w {
				t.Fatalf("trial %d: %s = %d, want %d", trial, k, got[k], w)
			}
		}
	}
}

// The schedule produced by every flow respects the latency bound ASAP+slack.
func TestLatencyBoundHolds(t *testing.T) {
	prop := func(seed int64, slackRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randGraph(rng, 4+rng.Intn(10))
		slack := int(slackRaw % 3)
		asap, err := sched.NewProblem(g).ASAP()
		if err != nil {
			return false
		}
		par := DefaultParams(8)
		par.Slack = slack
		par.NoExplore = true
		r, err := SynthesizeCtx(context.Background(), g, par)
		if err != nil {
			return false
		}
		return r.Design.Sched.Len <= asap.Len+slack
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
