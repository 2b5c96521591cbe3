// bist: the built-in self-test flow (the BIST methodology of the paper's
// reference [10]) on a synthesized data path — select TPG/MISR registers
// from the testability analysis, generate the self-test hardware, run the
// autonomous test session, and export the design as structural Verilog.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	hlts "repro"
)

func main() {
	const width = 4
	g, err := hlts.LoadBenchmark(hlts.BenchDct, width)
	if err != nil {
		log.Fatal(err)
	}
	res, err := hlts.SynthesizeCtx(context.Background(), g, hlts.DefaultParams(width))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("synthesized %s: %d modules, %d registers, area %.0f\n",
		g.Name, res.Design.Alloc.NumModules(), res.Design.Alloc.NumRegs(), res.Area.Total)

	// Select BIST registers from the testability metrics: pattern
	// generators where controllability is weakest, signature registers
	// where observability is weakest.
	tpg, misr := hlts.SelectBISTRegisters(res, 2, 4)
	fmt.Printf("TPG registers:  %v (LFSR pattern generators)\n", tpg)
	fmt.Printf("MISR registers: %v (signature compactors)\n", misr)

	n, err := hlts.GenerateNetlistWithBIST(res, width, tpg, misr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("self-test netlist: %s\n\n", n.C.Stats())

	// The self-test session: longer sessions detect more faults until the
	// pattern sequence saturates.
	for _, cycles := range []int{30, 100, 300} {
		out, err := hlts.RunBISTCfgCtx(context.Background(), n, 0, cycles, hlts.BISTConfig{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %s\n", out)
	}

	// Export as structural Verilog (first lines shown).
	v := n.Verilog("dct_bist")
	lines := strings.SplitN(v, "\n", 12)
	fmt.Println("\nVerilog export (head):")
	for _, l := range lines[:11] {
		fmt.Println("  " + l)
	}
	fmt.Printf("  ... (%d lines total)\n", strings.Count(v, "\n"))
}
