// testpoint: compare the four synthesis flows of the paper's evaluation
// on one benchmark, end to end — schedule, allocation, area, and the
// gate-level ATPG outcome. This is a single cell family of Tables 1-3.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	hlts "repro"
)

func main() {
	bench := flag.String("bench", hlts.BenchDct, "benchmark to compare on")
	width := flag.Int("width", 4, "bit width")
	faults := flag.Int("faults", 600, "fault sample size")
	flag.Parse()

	g, err := hlts.LoadBenchmark(*bench, *width)
	if err != nil {
		log.Fatal(err)
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "method\tmodules\tregs\tmux\tself-loops\tarea\tgates\tcoverage\teffort(kEval)\ttest cycles\n")
	for _, method := range hlts.Methods() {
		par := hlts.DefaultParams(*width)
		par.LoopSignal = g.Loop
		res, err := hlts.RunMethodCtx(context.Background(), method, g, par)
		if err != nil {
			log.Fatal(err)
		}
		nl, err := hlts.GenerateNetlist(res, *width, false)
		if err != nil {
			log.Fatal(err)
		}
		cfg := hlts.DefaultATPGConfig(7)
		cfg.SampleFaults = *faults
		ares, err := hlts.TestDesignCtx(context.Background(), nl, cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%.0f\t%d\t%.2f%%\t%d\t%d\n",
			method,
			res.Design.Alloc.NumModules(), res.Design.Alloc.NumRegs(),
			res.Mux.Muxes, res.Design.SelfLoops(), res.Area.Total,
			nl.C.NumGates(), 100*ares.Coverage, ares.Effort, ares.TestCycles)
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nThe integrated flow (ours) trades a few multiplexers for balanced")
	fmt.Println("controllability/observability; on the larger benchmarks that buys")
	fmt.Println("the highest stuck-at coverage of the four flows (paper Tables 1-3).")
}
