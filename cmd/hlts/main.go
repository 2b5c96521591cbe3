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
	"repro/internal/flow"
	"repro/internal/server"
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
		loopSig = flag.String("loop", "", "condition output closing a behavioural loop (default: the behaviour's own loop)")
		runATPG = flag.Bool("atpg", false, "run the gate-level ATPG campaign")
		scanN   = flag.Int("scan", 0, "select up to N partial-scan registers before ATPG")
		seed    = flag.Int64("seed", 1, "ATPG seed")
		faults  = flag.Int("faults", 1500, "fault sample size (0 = the default 1500; a size at or above the collapsed fault count runs every fault)")
		workers = flag.Int("workers", runtime.GOMAXPROCS(0), "worker goroutines for synthesis and ATPG (1 = sequential; results are identical at any count)")
		dot     = flag.Bool("dot", false, "print the behaviour as Graphviz dot and exit")
		verilog = flag.String("verilog", "", "write the generated netlist as structural Verilog to this file")
		etpnOut = flag.Bool("etpn", false, "print the synthesized ETPN data path")
		tstab   = flag.Bool("testability", false, "print the per-node testability analysis")
		stFlg   = flag.Bool("stats", false, "print synthesis cache/stage statistics after the run")
		timeout = flag.Duration("timeout", 0, "overall budget; when it expires, synthesis and ATPG return their best-so-far results marked partial (0 = no limit)")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile (runtime/pprof) to this file on exit")
	)
	flag.Parse()

	stop, err := stats.StartCPUProfile(*cpuProf)
	if err != nil {
		fatal(err)
	}
	stopProfile = stop
	defer stopProfile()

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// The flags are a /v1/testdesign request, read by hltsd's Normalize
	// (so -faults 0 is the default sample) and, with -atpg, run as the
	// daemon's own pipeline spec.
	req := server.TestDesignRequest{
		SynthesizeRequest: server.SynthesizeRequest{
			Bench: *bench, Width: *width, Method: *method,
			K: *k, Alpha: alpha, Beta: beta, Slack: *slack, Loop: *loopSig,
		},
		Seed: *seed, Faults: *faults, Scan: *scanN,
	}
	if *vhdl != "" {
		src, err := os.ReadFile(*vhdl)
		if err != nil {
			fatal(err)
		}
		req.VHDL = string(src)
	}
	n, err := req.Normalize()
	if err != nil {
		fatal(err)
	}
	g := n.Graph
	if *dot {
		fmt.Print(g.Dot())
		return
	}
	n.Params.Workers = *workers
	if *stFlg {
		n.Params.Stats = stats.New()
	}
	par := n.Params

	out := &flow.Outcome{}
	if *runATPG {
		out, err = flow.Run(ctx, n.Spec())
	} else {
		out.Synth, err = hlts.RunMethodCtx(ctx, n.Method, g, par)
	}
	if err != nil {
		fatal(err)
	}
	res := out.Synth
	fmt.Printf("behaviour %s: %d operations, %d values\n", g.Name, g.NumNodes(), g.NumValues())
	fmt.Printf("method %s, width %d, (k,alpha,beta) = (%d,%g,%g), slack %d\n",
		res.Method, par.Width, par.K, par.Alpha, par.Beta, par.Slack)
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
		if err := os.WriteFile(*verilog, []byte(n.Verilog(g.Name)), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("\nwrote %s (%s)\n", *verilog, n.C.Stats())
	}
	if *runATPG {
		if traj := out.ScanTrajectory; traj != nil {
			fmt.Printf("\npartial scan: registers %v, mean testability %.4f -> %.4f\n",
				out.ScanRegs, traj[0], traj[len(traj)-1])
		}
		fmt.Printf("\ngate-level: %s\n", out.Netlist.C.Stats())
		fmt.Printf("ATPG: %s\n", out.ATPG)
	}
	if par.Stats != nil {
		fmt.Println("\nsynthesis statistics:")
		par.Stats.WriteText(os.Stdout)
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
