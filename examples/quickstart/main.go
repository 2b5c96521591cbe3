// Quickstart: synthesize the Diffeq benchmark with the paper's integrated
// scheduling/allocation algorithm, generate its gate-level implementation,
// and measure its testability with the ATPG campaign — the full pipeline
// in one page of code.
package main

import (
	"context"
	"fmt"
	"log"

	hlts "repro"
)

func main() {
	// 1. Load a behaviour. Diffeq is the HAL differential-equation
	//    benchmark; g.Loop names the value that closes its loop.
	const width = 8
	g, err := hlts.LoadBenchmark(hlts.BenchDiffeq, width)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("behaviour %s: %d operations\n%s\n", g.Name, g.NumNodes(), g)

	// 2. Run Algorithm 1: (k, alpha, beta) = (3, 2, 1).
	par := hlts.DefaultParams(width)
	par.LoopSignal = g.Loop
	res, err := hlts.SynthesizeCtx(context.Background(), g, par)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("schedule after integrated synthesis:")
	fmt.Print(res.Design.Sched.String(g))
	fmt.Println("\nallocation:")
	fmt.Print(res.Design.Alloc.String(g))
	fmt.Printf("\nexecution time %d steps, area %.0f units, %d muxes\n",
		res.ExecTime, res.Area.Total, res.Mux.Muxes)

	// 3. Generate the gate-level implementation (normal mode: a one-hot
	//    FSM controller drives the data path).
	netlist, err := hlts.GenerateNetlist(res, width, false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ngate level: %s\n", netlist.C.Stats())

	// 4. Check semantics preservation at gate level for one input vector.
	in := map[string]uint64{"x": 2, "y": 5, "u": 100, "dx": 1, "a": 10}
	want, err := g.Interpret(width, in)
	if err != nil {
		log.Fatal(err)
	}
	got, err := netlist.SimulatePass(in)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("gate-level pass: x1=%d y1=%d u1=%d (behavioural: %d %d %d)\n",
		got["x1"], got["y1"], got["u1"], want["x1"], want["y1"], want["u1"])

	// 5. Run the stuck-at ATPG campaign.
	cfg := hlts.DefaultATPGConfig(1)
	cfg.SampleFaults = 600
	ares, err := hlts.TestDesignCtx(context.Background(), netlist, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nATPG: %s\n", ares)
}
