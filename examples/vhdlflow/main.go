// vhdlflow: compile a behavioural VHDL-subset description (the system's
// input format, paper §1) into the data-flow IR, synthesize it with two
// different flows, and compare the resulting data paths.
package main

import (
	"context"
	"fmt"
	"log"

	hlts "repro"
)

// A 4-tap FIR filter section written in the accepted VHDL subset.
const firSource = `
-- y[n] = c0*x0 + c1*x1 + c2*x2 + c3*x3, with a scaled saturation flag.
entity fir4 is
  port ( x0, x1, x2, x3, limit : in integer;
         y, over : out integer );
end entity;

architecture behaviour of fir4 is
begin
  process (x0, x1, x2, x3, limit)
    variable p0, p1, p2, p3, s1, s2 : integer;
  begin
    p0 := 5 * x0;
    p1 := 9 * x1;
    p2 := 9 * x2;
    p3 := 5 * x3;
    s1 := p0 + p1;
    s2 := p2 + p3;
    y    <= s1 + s2;
    over <= limit < (s1 + s2);
  end process;
end architecture;
`

func main() {
	const width = 8
	g, err := hlts.CompileVHDL(firSource, width)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled entity %q: %d operations, %d values\n\n", g.Name, g.NumNodes(), g.NumValues())
	fmt.Print(g)

	for _, method := range []string{hlts.MethodApproach2, hlts.MethodOurs} {
		par := hlts.DefaultParams(width)
		par.Slack = 1 // allow one extra control step for deeper sharing
		res, err := hlts.RunMethodCtx(context.Background(), method, g, par)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n=== %s ===\n", method)
		fmt.Print(res.Design.Sched.String(g))
		fmt.Print(res.Design.Alloc.String(g))
		fmt.Printf("execution %d steps, area %.0f, %d muxes, %d self-loops\n",
			res.ExecTime, res.Area.Total, res.Mux.Muxes, res.Design.SelfLoops())

		// Verify the synthesized design still computes the filter.
		in := map[string]uint64{"x0": 1, "x1": 2, "x2": 3, "x3": 4, "limit": 60}
		want, err := g.Interpret(width, in)
		if err != nil {
			log.Fatal(err)
		}
		got, err := res.Design.Simulate(width, in)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("y = %d (expected %d), over = %d (expected %d)\n",
			got["y"], want["y"], got["over"], want["over"])
	}
}
