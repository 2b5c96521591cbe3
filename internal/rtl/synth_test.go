package rtl

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dfg"
)

// Gate-level equivalence must hold for fully synthesized designs too — the
// whole pipeline (Algorithm 1 + RTL generation) is semantics-preserving.
func TestGateLevelMatchesInterpreterSynthesized(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, name := range []string{dfg.BenchEx, dfg.BenchDct, dfg.BenchDiffeq, dfg.BenchTseng} {
		g, _ := dfg.ByName(name, 8)
		par := core.DefaultParams(8)
		par.LoopSignal = g.Loop
		for _, method := range core.Methods() {
			r, err := core.RunCtx(context.Background(), method, g, par)
			if err != nil {
				t.Fatal(err)
			}
			n, err := Generate(r.Design, 8, NormalMode)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, method, err)
			}
			for trial := 0; trial < 5; trial++ {
				in := map[string]uint64{}
				for _, v := range g.Inputs() {
					in[g.Value(v).Name] = rng.Uint64()
				}
				want, _ := g.Interpret(8, in)
				got, err := n.SimulatePass(in)
				if err != nil {
					t.Fatalf("%s/%s: %v", name, method, err)
				}
				for k, w := range want {
					if got[k] != w {
						t.Fatalf("%s/%s trial %d: output %s = %d, want %d", name, method, trial, k, got[k], w)
					}
				}
			}
		}
	}
}

// TestGenerateDeterministic regenerates the netlist of every synthesis
// flow several times and requires byte-identical Verilog. Regression for
// buildPorts iterating its port map in Go's randomized order, which let
// the gate numbering (and with it the ATPG effort figures of Tables 1-3)
// vary from run to run.
func TestGenerateDeterministic(t *testing.T) {
	g := dfg.Ex(8)
	par := core.DefaultParams(8)
	par.Alpha, par.Beta = 10, 1
	for _, method := range core.Methods() {
		r, err := core.RunCtx(context.Background(), method, g, par)
		if err != nil {
			t.Fatal(err)
		}
		var want string
		for i := 0; i < 8; i++ {
			n, err := Generate(r.Design, 8, NormalMode)
			if err != nil {
				t.Fatal(err)
			}
			v := n.Verilog("ex")
			if i == 0 {
				want = v
			} else if v != want {
				t.Fatalf("%s: netlist generation is nondeterministic (draw %d differs)", method, i)
			}
		}
	}
}
