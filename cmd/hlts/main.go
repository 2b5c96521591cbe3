// Command hlts synthesizes one behaviour with the high-level test
// synthesis system and prints the resulting schedule, allocation, cost and
// testability figures.
//
// Usage:
//
//	hlts -bench diffeq -width 8 -method ours
//	hlts -vhdl design.vhd -width 16 -method approach2 -atpg
//	hlts -bench ex -dot           # emit the behaviour as Graphviz dot
//	hlts -bench dct -etpn         # print the ETPN data path
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"

	hlts "repro"
	"repro/internal/chaos"
	"repro/internal/stats"
	"repro/internal/testability"
)

func main() {
	var (
		bench   = flag.String("bench", "", "built-in benchmark name ("+fmt.Sprint(hlts.Benchmarks())+")")
		vhdl    = flag.String("vhdl", "", "path to a VHDL-subset source file (alternative to -bench)")
		width   = flag.Int("width", 8, "data-path bit width")
		method  = flag.String("method", hlts.MethodOurs, "synthesis flow: camad, approach1, approach2, ours")
		k       = flag.Int("k", 3, "candidate pairs per iteration (paper's k)")
		alpha   = flag.Float64("alpha", 2, "weight of ΔE in ΔC")
		beta    = flag.Float64("beta", 1, "weight of ΔH in ΔC")
		slack   = flag.Int("slack", 0, "latency slack in control steps over the ASAP length")
		loopSig = flag.String("loop", "", "condition output closing a behavioural loop (diffeq/paulin: exit)")
		runATPG = flag.Bool("atpg", false, "run the gate-level ATPG campaign")
		scanN   = flag.Int("scan", 0, "select up to N partial-scan registers before ATPG")
		seed    = flag.Int64("seed", 1, "ATPG seed")
		faults  = flag.Int("faults", 1500, "fault sample size (0 = all)")
		workers = flag.Int("workers", runtime.GOMAXPROCS(0), "worker goroutines for synthesis and ATPG (1 = sequential; results are identical at any count)")
		dot     = flag.Bool("dot", false, "print the behaviour as Graphviz dot and exit")
		verilog = flag.String("verilog", "", "write the generated netlist as structural Verilog to this file")
		etpnOut = flag.Bool("etpn", false, "print the synthesized ETPN data path")
		tstab   = flag.Bool("testability", false, "print the per-node testability analysis")
		stFlg   = flag.Bool("stats", false, "print synthesis cache/stage statistics after the run")
		timeout = flag.Duration("timeout", 0, "overall budget; when it expires, synthesis and ATPG return their best-so-far results marked partial (0 = no limit)")
		valFlg  = flag.Bool("validate", false, "run the structural invariant checkers on every intermediate artifact (design, netlist)")
		chaosFl = flag.String("chaos", "", "fault-injection spec, a recovery-path test hook: seed=N;site=action[:prob];... (see internal/chaos)")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile (runtime/pprof) to this file on exit")
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
		defer func() { fmt.Fprintf(os.Stderr, "hlts: chaos fired %d injected faults\n", in.FiredTotal()) }()
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	g, err := loadGraph(*bench, *vhdl, *width)
	if err != nil {
		fatal(err)
	}
	if *dot {
		fmt.Print(g.Dot())
		return
	}

	par := hlts.DefaultParams(*width)
	par.K = *k
	par.Alpha = *alpha
	par.Beta = *beta
	par.Slack = *slack
	par.LoopSignal = *loopSig
	par.Workers = *workers
	par.Validate = *valFlg
	if *stFlg {
		par.Stats = stats.New()
	}
	if par.LoopSignal == "" && (*bench == hlts.BenchDiffeq || *bench == hlts.BenchPaulin) {
		par.LoopSignal = "exit"
	}

	res, err := hlts.RunMethodCtx(ctx, *method, g, par)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("behaviour %s: %d operations, %d values\n", g.Name, g.NumNodes(), g.NumValues())
	fmt.Printf("method %s, width %d, (k,alpha,beta) = (%d,%g,%g), slack %d\n",
		res.Method, *width, *k, *alpha, *beta, *slack)
	if res.Status == hlts.StatusPartial {
		fmt.Printf("NOTE: partial result — %s budget exhausted; figures below are best-so-far\n", res.Exhausted)
	}
	fmt.Println()
	fmt.Println("schedule:")
	fmt.Print(res.Design.Sched.String(g))
	fmt.Println("\nallocation:")
	fmt.Print(res.Design.Alloc.String(g))
	fmt.Printf("\nexecution time: %d control steps\n", res.ExecTime)
	fmt.Printf("area estimate:  %s\n", res.Area)
	fmt.Printf("multiplexers:   %d (%d inputs), self-loops: %d\n",
		res.Mux.Muxes, res.Mux.Inputs, res.Design.SelfLoops())
	fmt.Printf("mean testability: %.4f\n", testability.MeanTestability(res.Design, res.Metrics))
	for _, line := range res.Trace {
		fmt.Println("  " + line)
	}

	if *etpnOut {
		fmt.Println()
		fmt.Print(res.Design.String())
	}
	if *tstab {
		fmt.Println()
		fmt.Print(res.Metrics.Summary(res.Design))
	}
	if *verilog != "" {
		n, err := hlts.GenerateNetlist(res, *width, false)
		if err != nil {
			fatal(err)
		}
		if *valFlg {
			if err := hlts.ValidateNetlist(n); err != nil {
				fatal(err)
			}
		}
		if err := os.WriteFile(*verilog, []byte(n.Verilog(g.Name)), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("\nwrote %s (%s)\n", *verilog, n.C.Stats())
	}
	if *runATPG {
		var scanRegs []int
		if *scanN > 0 {
			var traj []float64
			scanRegs, traj = hlts.SelectScanRegisters(res, *scanN)
			fmt.Printf("\npartial scan: registers %v, mean testability %.4f -> %.4f\n",
				scanRegs, traj[0], traj[len(traj)-1])
		}
		n, err := hlts.GenerateNetlistWithScan(res, *width, false, scanRegs)
		if err != nil {
			fatal(err)
		}
		if *valFlg {
			if err := hlts.ValidateNetlist(n); err != nil {
				fatal(err)
			}
		}
		fmt.Printf("\ngate-level: %s\n", n.C.Stats())
		cfg := hlts.DefaultATPGConfig(*seed)
		cfg.SampleFaults = *faults
		cfg.Workers = *workers
		ares, err := hlts.TestDesignCtx(ctx, n, cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("ATPG: %s\n", ares)
	}
	if par.Stats != nil {
		fmt.Println("\nsynthesis statistics:")
		par.Stats.WriteText(os.Stdout)
	}
}

func loadGraph(bench, vhdl string, width int) (*hlts.Graph, error) {
	switch {
	case bench != "" && vhdl != "":
		return nil, fmt.Errorf("choose one of -bench and -vhdl")
	case bench != "":
		return hlts.LoadBenchmark(bench, width)
	case vhdl != "":
		src, err := os.ReadFile(vhdl)
		if err != nil {
			return nil, err
		}
		return hlts.CompileVHDL(string(src), width)
	default:
		return nil, fmt.Errorf("one of -bench or -vhdl is required")
	}
}

// stopProfile ends the -cpuprofile profile; fatal calls it too, because
// os.Exit skips deferred calls.
var stopProfile = func() {}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hlts:", err)
	stopProfile()
	os.Exit(1)
}
