// customlib: drive the synthesizer with a hand-built data-flow graph, a
// custom module library (different area trade-offs than the default), and
// a parameter sweep over the paper's (k, alpha, beta) knobs — the workflow
// of a user tuning the synthesis for their own technology.
package main

import (
	"context"
	"fmt"
	"log"

	hlts "repro"
	"repro/internal/cost"
	"repro/internal/dfg"
)

func main() {
	// A hand-built behaviour: a small complex-multiply-accumulate
	// (re, im) = (ar*br - ai*bi + cr, ar*bi + ai*br + ci).
	g := dfg.New("cmac", 8)
	ar := g.Input("ar")
	ai := g.Input("ai")
	br := g.Input("br")
	bi := g.Input("bi")
	cr := g.Input("cr")
	ci := g.Input("ci")
	t1 := g.Op(dfg.OpMul, "t1", ar, br)
	t2 := g.Op(dfg.OpMul, "t2", ai, bi)
	t3 := g.Op(dfg.OpMul, "t3", ar, bi)
	t4 := g.Op(dfg.OpMul, "t4", ai, br)
	d1 := g.Op(dfg.OpSub, "d1", t1, t2)
	s1 := g.Op(dfg.OpAdd, "s1", t3, t4)
	re := g.Op(dfg.OpAdd, "re", d1, cr)
	im := g.Op(dfg.OpAdd, "im", s1, ci)
	g.MarkOutput(re)
	g.MarkOutput(im)
	if err := g.Validate(); err != nil {
		log.Fatal(err)
	}
	fmt.Print(g)

	// A custom library where multipliers are comparatively cheap (say, a
	// technology with hard multiplier macros): sharing multipliers buys
	// less, so the cost-driven merger behaves differently.
	macroLib := cost.DefaultLibrary()
	macroLib.MulPerBit2 = 4 // vs 20 in the default library

	for _, lib := range []struct {
		name string
		l    *cost.Library
	}{
		{"default library", nil},
		{"multiplier-macro library", macroLib},
	} {
		fmt.Printf("\n=== %s ===\n", lib.name)
		for _, kab := range [][3]float64{{3, 2, 1}, {1, 1, 10}} {
			par := hlts.DefaultParams(8)
			par.K = int(kab[0])
			par.Alpha, par.Beta = kab[1], kab[2]
			par.Slack = 2
			par.Lib = lib.l
			res, err := hlts.SynthesizeCtx(context.Background(), g, par)
			if err != nil {
				log.Fatal(err)
			}
			mults := 0
			for _, m := range res.Design.Alloc.Modules {
				if m.Class == "*" {
					mults++
				}
			}
			fmt.Printf("(k,a,b)=(%.0f,%.0f,%.0f): %d modules (%d mults), %d regs, %d steps, area %.0f\n",
				kab[0], kab[1], kab[2],
				res.Design.Alloc.NumModules(), mults,
				res.Design.Alloc.NumRegs(), res.ExecTime, res.Area.Total)
		}
	}

	fmt.Println("\nThe module library changes the absolute costs the merger optimizes")
	fmt.Println("(multiplier sharing buys 5x less with hard macros), and the")
	fmt.Println("(k, alpha, beta) knobs shift which mergers win their blocks — while")
	fmt.Println("the final allocation shape stays stable, as paper §5 observes.")
}
