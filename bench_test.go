package hlts

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (see DESIGN.md §4). Each benchmark runs the full
// pipeline for its experiment at 4 bits with a reduced fault sample so a
// `go test -bench=.` pass stays tractable; cmd/hltsbench regenerates the
// full-width tables.

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/atpg"
	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/dfggen"
	"repro/internal/fault"
	"repro/internal/logicsim"
	"repro/internal/report"
	"repro/internal/rtl"
	"repro/internal/stats"
)

// benchATPG is the reduced campaign used inside testing.B loops.
func benchATPG(seed int64) atpg.Config {
	cfg := atpg.DefaultConfig(seed)
	cfg.SampleFaults = 250
	cfg.RandomBatches = 2
	cfg.SeqLen = 12
	cfg.Restarts = 1
	return cfg
}

// tableCell runs one (benchmark, method) cell of a table at 4 bits.
func tableCell(b *testing.B, bench, method string) {
	b.Helper()
	g, err := dfg.ByName(bench, 4)
	if err != nil {
		b.Fatal(err)
	}
	par := core.DefaultParams(4)
	par.LoopSignal = g.Loop
	res, err := core.RunCtx(context.Background(), method, g, par)
	if err != nil {
		b.Fatal(err)
	}
	nl, err := rtl.Generate(res.Design, 4, rtl.NormalMode)
	if err != nil {
		b.Fatal(err)
	}
	ares, err := atpg.RunCtx(context.Background(), nl.C, benchATPG(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(100*ares.Coverage, "cov%")
	b.ReportMetric(float64(ares.TestCycles), "cycles")
	b.ReportMetric(res.Area.Total, "area")
}

func benchmarkTable(b *testing.B, bench string) {
	for _, method := range core.Methods() {
		b.Run(method, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tableCell(b, bench, method)
			}
		})
	}
}

// BenchmarkTable1Ex regenerates Table 1 (the Ex benchmark: module and
// register allocation, #mux, fault coverage, TG effort, test cycles).
func BenchmarkTable1Ex(b *testing.B) { benchmarkTable(b, dfg.BenchEx) }

// BenchmarkTable2Dct regenerates Table 2 (the Dct benchmark, including
// the area column).
func BenchmarkTable2Dct(b *testing.B) { benchmarkTable(b, dfg.BenchDct) }

// BenchmarkTable3Diffeq regenerates Table 3 (the Diffeq benchmark).
func BenchmarkTable3Diffeq(b *testing.B) { benchmarkTable(b, dfg.BenchDiffeq) }

// BenchmarkFigure1SRDemo regenerates the Figure 1 rescheduling
// demonstration (SR1/SR2 order choice).
func BenchmarkFigure1SRDemo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := report.Figure1(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2ExSchedule regenerates Figure 2: the Ex schedule under
// the integrated synthesis algorithm.
func BenchmarkFigure2ExSchedule(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := report.Schedule(dfg.BenchEx, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3Schedules regenerates Figure 3: the Dct and Diffeq
// schedules under the integrated synthesis algorithm.
func BenchmarkFigure3Schedules(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, bench := range []string{dfg.BenchDct, dfg.BenchDiffeq} {
			if _, err := report.Schedule(bench, 4); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkParamSweep regenerates the §5 parameter-sensitivity
// observation: (k, α, β) over the Ex benchmark.
func BenchmarkParamSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := report.ParameterSweep(dfg.BenchEx, 4, 0, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("empty sweep")
		}
	}
}

// BenchmarkAblationSelection isolates the pair-selection policy (balance
// versus connectivity), the core design choice of paper §3.
func BenchmarkAblationSelection(b *testing.B) {
	g := dfg.Ex(4)
	for _, sel := range []struct {
		name string
		s    core.SelectionPolicy
	}{{"balance", core.SelectBalance}, {"connectivity", core.SelectConnectivity}} {
		b.Run(sel.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				par := core.DefaultParams(4)
				par.Selection = sel.s
				res, err := core.SynthesizeCtx(context.Background(), g, par)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Design.SelfLoops()), "selfloops")
			}
		})
	}
}

// BenchmarkAblationReschedule isolates the rescheduling transformation
// (SR merge-sort versus append versus frozen schedule), the design choice
// of paper §4.3.
func BenchmarkAblationReschedule(b *testing.B) {
	g := dfg.Dct(4)
	for _, rs := range []struct {
		name string
		r    core.ReschedulePolicy
	}{
		{"mergesortSR", core.RescheduleMergeSort},
		{"append", core.RescheduleAppend},
		{"frozen", core.RescheduleFrozen},
	} {
		b.Run(rs.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				par := core.DefaultParams(4)
				par.Reschedule = rs.r
				res, err := core.SynthesizeCtx(context.Background(), g, par)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Design.Alloc.NumModules()), "modules")
			}
		})
	}
}

// BenchmarkSynthesize measures the synthesis core per table benchmark
// and bit width, with the memoized evaluation cache on and off. The
// cached variants report the build- and metrics-cache hit rates; the
// cache=on / cache=off ratio is the memoization win (1.1–1.5x, median
// 1.3x, on Diffeq at 16 bits over 7 runs on a 2-CPU Xeon).
func BenchmarkSynthesize(b *testing.B) {
	for _, bench := range []string{dfg.BenchEx, dfg.BenchDct, dfg.BenchDiffeq} {
		for _, width := range []int{4, 8, 16} {
			for _, cached := range []bool{true, false} {
				mode := "on"
				if !cached {
					mode = "off"
				}
				b.Run(fmt.Sprintf("%s/w%d/cache=%s", bench, width, mode), func(b *testing.B) {
					g, err := dfg.ByName(bench, width)
					if err != nil {
						b.Fatal(err)
					}
					par := core.DefaultParams(width)
					par.LoopSignal = g.Loop
					par.NoCache = !cached
					st := stats.New()
					par.Stats = st
					for i := 0; i < b.N; i++ {
						if _, err := core.SynthesizeCtx(context.Background(), g, par); err != nil {
							b.Fatal(err)
						}
					}
					if cached {
						b.ReportMetric(100*st.HitRate("cache.build"), "build-hit%")
						b.ReportMetric(100*st.HitRate("cache.metrics"), "metrics-hit%")
					}
				})
			}
		}
	}
}

// BenchmarkSynthesisAllBenchmarks measures the synthesis core alone
// (no gate level, no ATPG) over the whole benchmark suite. designs/op
// counts the ETPN designs the merger loop derived.
func BenchmarkSynthesisAllBenchmarks(b *testing.B) {
	for _, name := range dfg.BenchmarkNames() {
		b.Run(name, func(b *testing.B) {
			g, err := dfg.ByName(name, 8)
			if err != nil {
				b.Fatal(err)
			}
			par := core.DefaultParams(8)
			par.LoopSignal = g.Loop
			par.Stats = stats.New()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.SynthesizeCtx(context.Background(), g, par); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(par.Stats.Value("core.designs"))/float64(b.N), "designs/op")
		})
	}
}

// genMixJob is one synthesis of the GenMix set.
type genMixJob struct {
	g   *dfg.Graph
	par core.Params
}

// genMixJobs returns the GenMix set, shared by BenchmarkSynthesizeGenMix
// and TestCountersGolden: the paper's algorithm at one worker over 20
// pinned generated behaviours of 12–19 operations spanning every op mix
// and DAG shape, every fifth looped, at width 4, plus both shipped VHDL
// sources at widths 4 and 8.
func genMixJobs(tb testing.TB) []genMixJob {
	tb.Helper()
	var jobs []genMixJob
	add := func(g *dfg.Graph) {
		par := core.DefaultParams(g.Width)
		par.LoopSignal = g.Loop
		par.Workers = 1
		jobs = append(jobs, genMixJob{g, par})
	}
	mixes, shapes := dfggen.Mixes(), dfggen.Shapes()
	for i := 0; i < 20; i++ {
		spec := dfggen.Spec{
			Seed: 0x5E11 + uint64(i), Ops: 12 + i%8,
			Mix: mixes[i%len(mixes)], Shape: shapes[(i/6)%len(shapes)],
			Fanout: 1 + (i/3)%4, Loop: i%5 == 0,
		}
		g, err := dfggen.Generate(spec, 4)
		if err != nil {
			tb.Fatal(err)
		}
		add(g)
	}
	for _, f := range []string{"diffeq.vhd", "fir4.vhd"} {
		for _, w := range []int{4, 8} {
			add(loadVHDL(tb, f, w))
		}
	}
	return jobs
}

// runGenMix synthesizes every GenMix job once, counting into st.
func runGenMix(tb testing.TB, jobs []genMixJob, st *stats.Stats) {
	for _, j := range jobs {
		j.par.Stats = st
		if _, err := core.RunCtx(context.Background(), core.MethodOurs, j.g, j.par); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkSynthesizeGenMix mirrors the synth-unique workload's cost
// profile in process: one op synthesizes all 24 GenMix jobs. evals/op
// counts candidate evaluations, rejected/op the merge orders rejected
// before cloning, builds/op build-cache consults and designs/op the ETPN
// designs derived; at one worker all four, and every cache counter, are
// deterministic (TestCountersGolden pins them).
func BenchmarkSynthesizeGenMix(b *testing.B) {
	jobs := genMixJobs(b)
	st := stats.New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runGenMix(b, jobs, st)
	}
	n := float64(b.N)
	b.ReportMetric(float64(st.Value("core.evaluations"))/n, "evals/op")
	b.ReportMetric(float64(st.Value("core.rejected"))/n, "rejected/op")
	b.ReportMetric(float64(st.Value("cache.build.hit")+st.Value("cache.build.miss"))/n, "builds/op")
	b.ReportMetric(float64(st.Value("core.designs"))/n, "designs/op")
}

// BenchmarkGateLevelFaultSim measures the bit-parallel fault-simulation
// substrate on an 8-bit synthesized Diffeq.
func BenchmarkGateLevelFaultSim(b *testing.B) {
	g := dfg.Diffeq(8)
	par := core.DefaultParams(8)
	par.LoopSignal = g.Loop
	res, err := core.SynthesizeCtx(context.Background(), g, par)
	if err != nil {
		b.Fatal(err)
	}
	nl, err := rtl.Generate(res.Design, 8, rtl.NormalMode)
	if err != nil {
		b.Fatal(err)
	}
	cfg := benchATPG(1)
	cfg.MaxFrames = 2 // random phase dominated
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := atpg.RunCtx(context.Background(), nl.C, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFaultSimParallel measures the parallel fault-simulation engine
// on the Table 1 substrate — the full collapsed fault list of the 4-bit
// Ex design synthesized by the paper's algorithm — at increasing worker
// counts. workers=1 is the exact sequential path; the other sub-benchmarks
// record the speedup trajectory (expect ≥2x at workers=4 on a 4+-core
// machine; on fewer cores the extra workers only add pool overhead).
// Results are bit-identical at every worker count.
func BenchmarkFaultSimParallel(b *testing.B) {
	g, err := dfg.ByName(dfg.BenchEx, 4)
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.SynthesizeCtx(context.Background(), g, core.DefaultParams(4))
	if err != nil {
		b.Fatal(err)
	}
	nl, err := rtl.Generate(res.Design, 4, rtl.NormalMode)
	if err != nil {
		b.Fatal(err)
	}
	flist := fault.Collapse(nl.C)
	rng := rand.New(rand.NewSource(1998))
	vectors := make([][]uint64, 256)
	for t := range vectors {
		v := make([]uint64, len(nl.C.Inputs))
		for i := range v {
			v[i] = rng.Uint64()
		}
		vectors[t] = v
	}
	counts := []int{1, 2, 4, 8}
	if n := runtime.GOMAXPROCS(0); n != 1 && n != 2 && n != 4 && n != 8 {
		counts = append(counts, n)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			var det int
			for i := 0; i < b.N; i++ {
				n, err := logicsim.FaultSimIncrementalWorkers(nl.C, flist, make([]bool, len(flist)), nil, vectors, 0, workers)
				if err != nil {
					b.Fatal(err)
				}
				det = n
			}
			b.ReportMetric(float64(det), "detected")
			b.ReportMetric(float64(len(flist)), "faults")
		})
	}
}

// bistLanes are the lane counts of BenchmarkBIST and of the BIST counters
// in TestCountersGolden.
var bistLanes = []int{1, 64}

// bistNetlist is the BIST subject of BenchmarkBIST and TestCountersGolden:
// the 4-bit Diffeq design with two TPG and two MISR registers.
func bistNetlist(tb testing.TB) *Netlist {
	tb.Helper()
	g, err := LoadBenchmark(BenchDiffeq, 4)
	if err != nil {
		tb.Fatal(err)
	}
	par := DefaultParams(4)
	par.LoopSignal = g.Loop
	res, err := SynthesizeCtx(context.Background(), g, par)
	if err != nil {
		tb.Fatal(err)
	}
	tpg, misr := SelectBISTRegisters(res, 2, 2)
	nl, err := GenerateNetlistWithBIST(res, 4, tpg, misr)
	if err != nil {
		tb.Fatal(err)
	}
	return nl
}

// runBIST runs one 200-fault, 100-cycle BIST session at lanes.
func runBIST(tb testing.TB, nl *Netlist, lanes int) *atpg.BISTOutcome {
	out, err := RunBISTCfgCtx(context.Background(), nl, 200, 100, BISTConfig{Lanes: lanes})
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// BenchmarkBIST measures the BIST session evaluator on the 4-bit Diffeq
// design at 1 lane (the historical single-session evaluator) and 64
// lanes (PPSFP: all simulator lanes carry independent sessions). Both
// sub-benchmarks spend the same simulation passes per fault, so
// passes/session — the simulation cost per pseudorandom session — drops
// 64x at lanes=64. Passes are nominal; gate_evals counts the evaluations
// the divergence-only kernel performed. TestCountersGolden pins both rows'
// passes, detections and gate evaluations.
func BenchmarkBIST(b *testing.B) {
	nl := bistNetlist(b)
	for _, lanes := range bistLanes {
		b.Run(fmt.Sprintf("lanes=%d", lanes), func(b *testing.B) {
			b.ReportAllocs()
			var out *atpg.BISTOutcome
			for i := 0; i < b.N; i++ {
				out = runBIST(b, nl, lanes)
			}
			b.ReportMetric(100*out.Coverage, "cov%")
			b.ReportMetric(float64(out.Passes)/float64(out.Evaluated*out.Lanes), "passes/session")
			b.ReportMetric(float64(out.GateEvals), "gate_evals")
		})
	}
}

// podemBenches are the designs of BenchmarkPODEM and of the PODEM counters
// in TestCountersGolden.
var podemBenches = []string{BenchEx, BenchDct, BenchDiffeq, BenchEWF}

// podemCase returns the ATPG subject of BenchmarkPODEM and
// TestCountersGolden for bench: the 4-bit design of the paper's algorithm
// and the /v1/testdesign settings (300 sampled faults, the facade's frame
// cap) at one worker.
func podemCase(tb testing.TB, bench string) (*Netlist, ATPGConfig) {
	tb.Helper()
	g, err := LoadBenchmark(bench, 4)
	if err != nil {
		tb.Fatal(err)
	}
	par := DefaultParams(4)
	par.LoopSignal = g.Loop
	res, err := RunMethodCtx(context.Background(), MethodOurs, g, par)
	if err != nil {
		tb.Fatal(err)
	}
	nl, err := GenerateNetlist(res, 4, false)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := DefaultATPGConfig(1)
	cfg.SampleFaults = 300
	cfg.Workers = 1
	return nl, cfg
}

// TestBacktrackLimitKeepsDetections pins DefaultConfig's BacktrackLimit
// against the 60 it replaced: on podemCase's designs the cheaper budget
// detects the same faults with the same compacted test set, spends
// strictly less effort, and leaves the same number of faults unresolved
// (only the split between frame- and backtrack-limited may move).
func TestBacktrackLimitKeepsDetections(t *testing.T) {
	if raceEnabled {
		t.Skip("eight full campaigns; too slow under the race detector")
	}
	for _, bench := range podemBenches {
		nl, cfg := podemCase(t, bench)
		if cfg.BacktrackLimit >= 60 {
			t.Fatalf("DefaultConfig's BacktrackLimit is %d, not below 60", cfg.BacktrackLimit)
		}
		old := cfg
		old.BacktrackLimit = 60
		got, err := TestDesignCtx(context.Background(), nl, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := TestDesignCtx(context.Background(), nl, old)
		if err != nil {
			t.Fatal(err)
		}
		if got.Detected() != want.Detected() || got.DetDetected != want.DetDetected || got.Coverage != want.Coverage {
			t.Errorf("%s: detected %d (%d by PODEM), coverage %v at limit %d; want %d (%d), %v at 60",
				bench, got.Detected(), got.DetDetected, got.Coverage, cfg.BacktrackLimit,
				want.Detected(), want.DetDetected, want.Coverage)
		}
		if got.TestCycles != want.TestCycles || !reflect.DeepEqual(got.TestSet, want.TestSet) {
			t.Errorf("%s: test set of %d cycles at limit %d differs from the %d cycles at 60",
				bench, got.TestCycles, cfg.BacktrackLimit, want.TestCycles)
		}
		if got.Effort >= want.Effort {
			t.Errorf("%s: effort %d at limit %d, not below %d at 60", bench, got.Effort, cfg.BacktrackLimit, want.Effort)
		}
		if g, w := got.Untestable+got.FrameLimited+got.Aborted, want.Untestable+want.FrameLimited+want.Aborted; g != w {
			t.Errorf("%s: %d unresolved faults at limit %d, want %d as at 60", bench, g, cfg.BacktrackLimit, w)
		}
		t.Logf("%s: effort %d -> %d; untestable/frame-limited/aborted %d/%d/%d -> %d/%d/%d", bench,
			want.Effort, got.Effort, want.Untestable, want.FrameLimited, want.Aborted,
			got.Untestable, got.FrameLimited, got.Aborted)
	}
}

// BenchmarkPODEM measures the full ATPG campaign — random phase plus
// event-driven PODEM — on podemCase's designs. kEval is the nominal
// effort of the tables' TG-effort column, gate_evals the evaluations
// actually performed; both and det_detected are deterministic, and
// TestCountersGolden pins them exactly.
func BenchmarkPODEM(b *testing.B) {
	for _, bench := range podemBenches {
		b.Run(bench, func(b *testing.B) {
			nl, cfg := podemCase(b, bench)
			b.ReportAllocs()
			b.ResetTimer()
			var ares *ATPGResult
			var err error
			for i := 0; i < b.N; i++ {
				if ares, err = TestDesignCtx(context.Background(), nl, cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(ares.Effort), "kEval")
			b.ReportMetric(float64(ares.GateEvals), "gate_evals")
			b.ReportMetric(float64(ares.DetDetected), "det_detected")
		})
	}
}

// BenchmarkSimEval and BenchmarkSimStep measure the logic-sim inner loop
// on the 4-bit Ex netlist; both report 0 allocs/op (the reused
// output-buffer contract the fault-simulation loops rely on, enforced by
// logicsim's TestEvalStepZeroAllocSteadyState).
func BenchmarkSimEval(b *testing.B) {
	s, pi := benchSim(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Eval(pi)
	}
}

func BenchmarkSimStep(b *testing.B) {
	s, pi := benchSim(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step(pi)
	}
}

func benchSim(b *testing.B) (*logicsim.Sim, []uint64) {
	b.Helper()
	g, err := dfg.ByName(dfg.BenchEx, 4)
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.SynthesizeCtx(context.Background(), g, core.DefaultParams(4))
	if err != nil {
		b.Fatal(err)
	}
	nl, err := rtl.Generate(res.Design, 4, rtl.NormalMode)
	if err != nil {
		b.Fatal(err)
	}
	p, err := nl.C.Compile()
	if err != nil {
		b.Fatal(err)
	}
	s := logicsim.New(p)
	pi := make([]uint64, len(nl.C.Inputs))
	rng := rand.New(rand.NewSource(1998))
	for i := range pi {
		pi[i] = rng.Uint64()
	}
	return s, pi
}

// Example of the facade API in documentation form.
func ExampleSynthesizeCtx() {
	g, _ := LoadBenchmark(BenchEx, 4)
	res, _ := SynthesizeCtx(context.Background(), g, DefaultParams(4))
	fmt.Println(res.ExecTime, "control steps")
	// Output: 4 control steps
}
