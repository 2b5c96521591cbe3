package hlts

// Equivalence suite for the parallel execution engine: every hot path —
// fault simulation, the ATPG campaign and the tie-policy exploration of
// core.SynthesizeCtx — must produce bit-identical results at any worker
// count on the paper's three benchmarks. `go test -race` runs this suite
// with real goroutine interleavings, so it doubles as the engine's race
// stress test at the system level (internal/parallel has the unit-level
// one).

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/atpg"
	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/fault"
	"repro/internal/gates"
	"repro/internal/logicsim"
	"repro/internal/rtl"
)

var equivBenches = []string{dfg.BenchEx, dfg.BenchDct, dfg.BenchDiffeq}

// equivNetlist synthesizes a benchmark with the paper's algorithm at 4
// bits and returns its normal-mode netlist.
func equivNetlist(t *testing.T, bench string) *gates.Circuit {
	t.Helper()
	g, err := dfg.ByName(bench, 4)
	if err != nil {
		t.Fatal(err)
	}
	par := core.DefaultParams(4)
	par.LoopSignal = g.Loop
	res, err := core.SynthesizeCtx(context.Background(), g, par)
	if err != nil {
		t.Fatal(err)
	}
	nl, err := rtl.Generate(res.Design, 4, rtl.NormalMode)
	if err != nil {
		t.Fatal(err)
	}
	return nl.C
}

func TestFaultSimWorkersEquivalence(t *testing.T) {
	for _, bench := range equivBenches {
		t.Run(bench, func(t *testing.T) {
			c := equivNetlist(t, bench)
			flist := fault.Sample(fault.Collapse(c), 400)
			rng := rand.New(rand.NewSource(1998))
			vectors := make([][]uint64, 48)
			for ti := range vectors {
				v := make([]uint64, len(c.Inputs))
				for i := range v {
					v[i] = rng.Uint64()
				}
				vectors[ti] = v
			}
			run := func(workers int) ([]bool, []int, int) {
				detected := make([]bool, len(flist))
				cycles := make([]int, len(flist))
				newly, err := logicsim.FaultSimIncrementalWorkers(c, flist, detected, cycles, vectors, 7, workers)
				if err != nil {
					t.Fatal(err)
				}
				return detected, cycles, newly
			}
			d1, c1, n1 := run(1)
			if n1 == 0 {
				t.Fatal("no faults detected; equivalence check is vacuous")
			}
			for _, workers := range []int{2, 4, 8} {
				dw, cw, nw := run(workers)
				if !reflect.DeepEqual(dw, d1) || !reflect.DeepEqual(cw, c1) || nw != n1 {
					t.Errorf("workers=%d: fault sim diverges from sequential", workers)
				}
			}
		})
	}
}

func TestATPGWorkersEquivalence(t *testing.T) {
	for _, bench := range equivBenches {
		t.Run(bench, func(t *testing.T) {
			c := equivNetlist(t, bench)
			cfg := atpg.DefaultConfig(1998)
			cfg.SampleFaults = 250
			cfg.RandomBatches = 2
			cfg.Restarts = 1
			cfg.BacktrackLimit = 30
			run := func(workers int) *atpg.Result {
				cw := cfg
				cw.Workers = workers
				res, err := atpg.RunCtx(context.Background(), c, cw)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			want := run(1)
			for _, workers := range []int{2, 4, 8} {
				got := run(workers)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("workers=%d: atpg.Result diverges from sequential:\n%v\nvs\n%v", workers, got, want)
				}
			}
		})
	}
}

// synthFingerprint projects a core.Result onto its deterministic,
// comparable content: metrics, the full merger trace, and the rendered
// schedule and allocation.
func synthFingerprint(g *dfg.Graph, r *core.Result) string {
	return fmt.Sprintf("exec=%d area=%v mux=%+v loops=%d trace=%v\n%s\n%s",
		r.ExecTime, r.Area, r.Mux, r.Design.SelfLoops(), r.Trace,
		r.Design.Sched.String(g), r.Design.Alloc.String(g))
}

func TestSynthesizeWorkersEquivalence(t *testing.T) {
	for _, bench := range equivBenches {
		t.Run(bench, func(t *testing.T) {
			g, err := dfg.ByName(bench, 4)
			if err != nil {
				t.Fatal(err)
			}
			par := core.DefaultParams(4)
			par.LoopSignal = g.Loop
			run := func(workers int) string {
				p := par
				p.Workers = workers
				r, err := core.SynthesizeCtx(context.Background(), g, p)
				if err != nil {
					t.Fatal(err)
				}
				return synthFingerprint(g, r)
			}
			want := run(1)
			for _, workers := range []int{2, 4} {
				if got := run(workers); got != want {
					t.Errorf("workers=%d: core.Result diverges from sequential:\n%s\nvs\n%s", workers, got, want)
				}
			}
		})
	}
}
