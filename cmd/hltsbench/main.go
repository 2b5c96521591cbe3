// Command hltsbench regenerates the paper's experiments: Tables 1-3
// (Ex, Dct, Diffeq at 4/8/16 bits across the four synthesis flows),
// Figures 1-3 (the SR1/SR2 rescheduling demonstration and the synthesized
// schedules), the parameter-sensitivity sweep of §5, and the design-choice
// ablations.
//
// Usage:
//
//	hltsbench -all                     # everything, text format
//	hltsbench -table 2 -widths 4,8     # just Table 2 at 4 and 8 bits
//	hltsbench -figure 3
//	hltsbench -sweep -ablation
//	hltsbench -all -markdown           # EXPERIMENTS.md body
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/atpg"
	"repro/internal/chaos"
	"repro/internal/dfg"
	"repro/internal/dfggen"
	"repro/internal/report"
	"repro/internal/stats"
)

var tableBench = map[int]string{1: dfg.BenchEx, 2: dfg.BenchDct, 3: dfg.BenchDiffeq, 4: dfg.BenchEWF}

func main() {
	var (
		table    = flag.Int("table", 0, "reproduce one table (1 = Ex, 2 = Dct, 3 = Diffeq, 4 = EWF)")
		benchFlg = flag.String("bench", "", "run the table for an arbitrary benchmark (ewf, paulin, tseng, ...)")
		figure   = flag.Int("figure", 0, "reproduce one figure (1 = SR demo, 2 = Ex schedule, 3 = Dct+Diffeq schedules)")
		sweep    = flag.Bool("sweep", false, "run the (k, alpha, beta) parameter sweep")
		ablation = flag.Bool("ablation", false, "run the design-choice ablations")
		scanFlg  = flag.Bool("scan", false, "run the partial-scan extension study")
		bistFlg  = flag.Bool("bist", false, "run the BIST lane-parallel (PPSFP) extension study")
		all      = flag.Bool("all", false, "run every table, figure, sweep and ablation")
		widths   = flag.String("widths", "4,8,16", "comma-separated bit widths")
		seed     = flag.Int64("seed", 1998, "experiment seed")
		faults   = flag.Int("faults", 1500, "fault sample size per campaign")
		workers  = flag.Int("workers", runtime.GOMAXPROCS(0), "total worker-goroutine budget, split between concurrent cells and the goroutines inside each (1 = sequential; results are identical at any count)")
		markdown = flag.Bool("markdown", false, "emit tables as markdown")
		statsFlg = flag.Bool("stats", false, "print synthesis cache/stage statistics after the run")
		timeout  = flag.Duration("timeout", 0, "overall budget; when it expires, in-flight cells finish with their best-so-far figures, marked *partial in the table (0 = no limit)")
		chaosFl  = flag.String("chaos", "", "fault-injection spec, a recovery-path test hook: seed=N;site=action[:prob];... (see internal/chaos)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile (runtime/pprof) to this file on exit")

		gen       = flag.Int("gen", 0, "run the generated-suite table over N seeded synthetic behaviours (see internal/dfggen)")
		genSeed   = flag.Uint64("gen-seed", 1, "base seed of the generated suite; behaviour i uses seed base+i")
		genOps    = flag.Int("gen-ops", 24, "operation count of each generated behaviour")
		genMix    = flag.String("gen-mix", "mixed", "op-kind mix: arith, mul, logic, cmp, mixed, diffeq")
		genShape  = flag.String("gen-shape", "mesh", "DAG shape: mesh, wide, deep, diamond")
		genFanout = flag.Int("gen-fanout", 2, "fan-out hub bias 1..8")
		genLoop   = flag.Bool("gen-loop", false, "append the Diffeq-style loop idiom to each generated behaviour")
		genCond   = flag.Bool("gen-cond", false, "append a conditional-select idiom to each generated behaviour")
		genMethod = flag.String("gen-method", "ours", "synthesis flow for the generated suite (camad, approach1, approach2, ours)")
	)
	flag.Parse()

	stop, err := stats.StartCPUProfile(*cpuProf)
	if err != nil {
		fatal(err)
	}
	stopProfile = stop
	defer stopProfile()

	if *chaosFl != "" {
		in, err := chaos.Parse(*chaosFl)
		if err != nil {
			fatal(err)
		}
		restore := chaos.Install(in)
		defer restore()
		defer func() { fmt.Fprintf(os.Stderr, "hltsbench: chaos fired %d injected faults\n", in.FiredTotal()) }()
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var st *stats.Stats
	if *statsFlg {
		st = stats.New()
	}
	cfg := report.DefaultConfig(*seed)
	cfg.Workers = *workers
	cfg.Stats = st
	var ws []int
	for _, f := range strings.Split(*widths, ",") {
		w, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			fatal(fmt.Errorf("bad width %q", f))
		}
		ws = append(ws, w)
	}
	cfg.Widths = ws
	baseATPG := cfg.ATPGFor
	cfg.ATPGFor = func(width int) atpg.Config {
		c := baseATPG(width)
		if *faults > 0 && *faults < c.SampleFaults {
			c.SampleFaults = *faults
		}
		return c
	}

	ran := false
	if *benchFlg != "" {
		ran = true
		fmt.Printf("--- Supplementary table (%s) ---\n", *benchFlg)
		tbl, err := report.RunTableCtx(ctx, *benchFlg, cfg)
		if err != nil {
			fatal(err)
		}
		if *markdown {
			fmt.Println(tbl.Markdown())
		} else {
			fmt.Println(tbl.Render())
		}
	}
	if *all || *table > 0 {
		for n := 1; n <= len(tableBench); n++ {
			if !*all && *table != n {
				continue
			}
			if *all && n > 3 {
				// -all reproduces the paper's three tables; the EWF
				// supplement (34 ops, heavy at 16 bits) stays opt-in.
				continue
			}
			ran = true
			bench := tableBench[n]
			fmt.Printf("--- Table %d (%s) ---\n", n, bench)
			tbl, err := report.RunTableCtx(ctx, bench, cfg)
			if err != nil {
				fatal(err)
			}
			if *markdown {
				fmt.Println(tbl.Markdown())
			} else {
				fmt.Println(tbl.Render())
			}
		}
	}
	if *all || *figure == 1 {
		ran = true
		text, err := report.Figure1()
		if err != nil {
			fatal(err)
		}
		fmt.Println("--- Figure 1 ---")
		fmt.Println(text)
	}
	if *all || *figure == 2 {
		ran = true
		fmt.Println("--- Figure 2 (Ex schedule) ---")
		text, err := report.Schedule(dfg.BenchEx, ws[0], cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Println(text)
	}
	if *all || *figure == 3 {
		ran = true
		fmt.Println("--- Figure 3 (Dct and Diffeq schedules) ---")
		for _, bench := range []string{dfg.BenchDct, dfg.BenchDiffeq} {
			text, err := report.Schedule(bench, ws[0], cfg)
			if err != nil {
				fatal(err)
			}
			fmt.Println(text)
		}
	}
	if *all || *sweep {
		ran = true
		fmt.Println("--- Parameter sweep (paper §5 remark) ---")
		for _, bench := range []string{dfg.BenchEx, dfg.BenchDct, dfg.BenchDiffeq} {
			rows, err := report.ParameterSweep(bench, ws[0], *workers, st)
			if err != nil {
				fatal(err)
			}
			fmt.Println(report.RenderSweep(bench, rows))
		}
	}
	if *all || *ablation {
		ran = true
		fmt.Println("--- Design-choice ablations ---")
		for _, bench := range []string{dfg.BenchEx, dfg.BenchDct, dfg.BenchDiffeq} {
			rows, err := report.Ablations(bench, ws[0], *workers, st)
			if err != nil {
				fatal(err)
			}
			fmt.Println(report.RenderAblations(bench, rows))
		}
	}
	if *all || *scanFlg {
		ran = true
		fmt.Println("--- Partial-scan extension study (diffeq, 4-bit) ---")
		text, err := report.ScanStudy(dfg.BenchDiffeq, 4, 4, *seed, *workers)
		if err != nil {
			fatal(err)
		}
		fmt.Println(text)
	}
	if *all || *bistFlg {
		ran = true
		fmt.Println("--- BIST lane-parallel study (diffeq, 4-bit) ---")
		text, err := report.BISTStudy(dfg.BenchDiffeq, 4, 2, 2, []int{100, 400}, *faults, uint64(*seed), *workers)
		if err != nil {
			fatal(err)
		}
		fmt.Println(text)
	}
	if *gen > 0 {
		ran = true
		specs := make([]dfggen.Spec, *gen)
		for i := range specs {
			specs[i] = dfggen.Spec{
				Seed: *genSeed + uint64(i), Ops: *genOps, Mix: *genMix,
				Shape: *genShape, Fanout: *genFanout, Loop: *genLoop, Cond: *genCond,
			}
		}
		fmt.Printf("--- Generated suite (%d behaviours, seed %d) ---\n", *gen, *genSeed)
		suite, err := report.RunGenSuiteCtx(ctx, specs, *genMethod, ws[0], cfg)
		if err != nil {
			fatal(err)
		}
		if *markdown {
			fmt.Println(suite.Markdown())
		} else {
			fmt.Println(suite.Render())
		}
	}
	if !ran {
		flag.Usage()
		stopProfile()
		os.Exit(2)
	}
	if st != nil {
		fmt.Println("--- Synthesis statistics ---")
		st.WriteText(os.Stdout)
	}
}

// stopProfile ends the -cpuprofile profile; fatal calls it too, because
// os.Exit skips deferred calls.
var stopProfile = func() {}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hltsbench:", err)
	stopProfile()
	os.Exit(1)
}
