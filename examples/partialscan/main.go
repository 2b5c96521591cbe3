// partialscan: the design-for-test extension built on the paper's
// framework. After integrated synthesis, the testability analysis ranks
// the registers, a greedy selector converts the weakest into scan
// registers, and the ATPG campaign quantifies the coverage gained per
// scanned register — the classic partial-scan trade-off curve.
package main

import (
	"context"
	"fmt"
	"log"

	hlts "repro"
)

func main() {
	const width = 4
	g, err := hlts.LoadBenchmark(hlts.BenchDiffeq, width)
	if err != nil {
		log.Fatal(err)
	}
	par := hlts.DefaultParams(width)
	par.LoopSignal = g.Loop
	res, err := hlts.SynthesizeCtx(context.Background(), g, par)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("synthesized %s: %d modules, %d registers\n",
		g.Name, res.Design.Alloc.NumModules(), res.Design.Alloc.NumRegs())

	regs, traj := hlts.SelectScanRegisters(res, 4)
	fmt.Printf("scan selection order: %v\n", regs)
	for i, mt := range traj {
		fmt.Printf("  %d scan registers -> mean testability %.4f\n", i, mt)
	}

	cfg := hlts.DefaultATPGConfig(5)
	cfg.SampleFaults = 0 // full collapsed fault list: no sampling noise
	cfg.RandomBatches = 2
	fmt.Printf("\n%-14s %10s %12s %12s\n", "scan regs", "coverage", "TG effort", "test cycles")
	for n := 0; n <= len(regs); n++ {
		nl, err := hlts.GenerateNetlistWithScan(res, width, false, regs[:n])
		if err != nil {
			log.Fatal(err)
		}
		ares, err := hlts.TestDesignCtx(context.Background(), nl, cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14d %9.2f%% %12d %12d\n", n, 100*ares.Coverage, ares.Effort, ares.TestCycles)
	}
	fmt.Println("\nEach scanned register anchors a controllability/observability island,")
	fmt.Println("so coverage climbs while deterministic search effort falls — the")
	fmt.Println("extension the paper's testability framework was built to support.")
}
