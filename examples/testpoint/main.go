// testpoint: compare the four synthesis flows of the paper's evaluation
// on one benchmark, end to end — allocation, area, and the gate-level
// ATPG outcome. This is one width of Tables 1-3, computed by the same
// table code as hltsbench and hltsd's /v1/table.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	hlts "repro"
)

func main() {
	bench := flag.String("bench", hlts.BenchDct, "benchmark to compare on")
	width := flag.Int("width", 4, "bit width")
	faults := flag.Int("faults", 600, "fault sample size")
	flag.Parse()

	cfg := hlts.DefaultExperimentConfig(7)
	cfg.Widths = []int{*width}
	cfg.CapFaults(*faults)
	tbl, err := hlts.ReproduceTableCtx(context.Background(), *bench, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(tbl.Render())
	fmt.Println("The integrated flow (ours) trades a few multiplexers for balanced")
	fmt.Println("controllability/observability; on the larger benchmarks that buys")
	fmt.Println("the highest stuck-at coverage of the four flows (paper Tables 1-3).")
}
