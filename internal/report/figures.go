package report

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/alloc"
	"repro/internal/atpg"
	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/etpn"
	"repro/internal/parallel"
	"repro/internal/rtl"
	"repro/internal/scan"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/testability"
)

// Figure1 reproduces the paper's Figure 1 demonstration: when two
// operations scheduled in the same control step must share a module, the
// serialization order matters. Executing the operation with the longer
// downstream chain first (the SR2 choice here) keeps the schedule at its
// minimum length, and the resulting register sharing — hence the
// sequential depths the SR1 rule cares about — differs between the two
// orders. The returned text shows schedule length and mean register
// sequential depth for both.
func Figure1() (string, error) {
	// N1 feeds a short chain (one consumer); N2 feeds a two-stage chain.
	// N1 and N2 share one adder module, so one of them must wait a step.
	g := dfg.New("fig1", 8)
	a := g.Input("a")
	b := g.Input("b")
	c := g.Input("c")
	e := g.Input("e")
	f := g.Input("f")
	p := g.OpNamed("N1", dfg.OpAdd, "p", a, b)
	q := g.OpNamed("N2", dfg.OpAdd, "q", c, c)
	o1 := g.OpNamed("N3", dfg.OpAdd, "o1", p, e)
	t := g.OpNamed("N4", dfg.OpAdd, "t", q, e)
	o2 := g.OpNamed("N5", dfg.OpAdd, "o2", t, f)
	g.MarkOutput(o1)
	g.MarkOutput(o2)

	var b2 strings.Builder
	fmt.Fprintf(&b2, "Figure 1: controllability/observability enhancement strategy (SR1/SR2)\n")
	fmt.Fprintf(&b2, "N1 and N2 share one module and must be serialized.\n\n")
	n1, _ := g.NodeByName("N1")
	n2, _ := g.NodeByName("N2")
	n3, _ := g.NodeByName("N3")
	n4, _ := g.NodeByName("N4")
	n5, _ := g.NodeByName("N5")
	for _, order := range []struct {
		name string
		arc  [2]dfg.NodeID
	}{
		{"N2 before N1 (SR2 choice)", [2]dfg.NodeID{n2, n1}},
		{"N1 before N2", [2]dfg.NodeID{n1, n2}},
	} {
		prob := sched.NewProblem(g)
		prob.ModuleOf[n1] = 0
		prob.ModuleOf[n2] = 0
		_ = n3
		_ = n4
		_ = n5
		prob.Extra = append(prob.Extra, order.arc)
		s, err := prob.List()
		if err != nil {
			return "", err
		}
		life := alloc.Lifetimes(g, s)
		regOf, nRegs := alloc.RegisterLeftEdge(g, life)
		al := alloc.BindModules(g, s, sched.ExactClass, regOf, nRegs)
		d, err := etpn.Build(g, s, al, life, etpn.Options{})
		if err != nil {
			return "", err
		}
		m := testability.Analyze(d, testability.DefaultConfig())
		sum, cnt := 0.0, 0
		for _, nd := range d.Nodes {
			if nd.Kind == etpn.KindRegister {
				sum += m.SeqDepth(nd.ID)
				cnt++
			}
		}
		fmt.Fprintf(&b2, "order %-28s schedule length %d, mean register sequential depth %.2f\n",
			order.name+":", s.Len, sum/float64(cnt))
		b2.WriteString(s.String(g))
		b2.WriteString("\n")
	}
	_ = p
	_ = q
	_ = o1
	_ = o2
	_ = t
	_ = a
	_ = e
	_ = f
	_ = b
	b2.WriteString("Executing the long-chain operation first (the SR2-supported order)\n")
	b2.WriteString("keeps the schedule at its minimum length: the serialization imposed\n")
	b2.WriteString("by the module merger is absorbed into existing slack instead of\n")
	b2.WriteString("stretching the critical path. The register sharing and sequential\n")
	b2.WriteString("depths then differ between the two orders, which is what the\n")
	b2.WriteString("controllability/observability enhancement strategy exploits.\n")
	return b2.String(), nil
}

// Schedule returns the schedule listing produced by Our synthesis for a
// benchmark — Figures 2 (Ex) and 3 (Dct, Diffeq) of the paper.
func Schedule(bench string, width int, cfg Config) (string, error) {
	g, err := dfg.ByName(bench, width)
	if err != nil {
		return "", err
	}
	par := cfg.ParamsFor(width)
	par.Width = width
	par.LoopSignal = loopSignalFor(bench)
	res, err := core.SynthesizeCtx(context.TODO(), g, par)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Schedule for the %s benchmark after our synthesis algorithm:\n", bench)
	b.WriteString(res.Design.Sched.String(g))
	fmt.Fprintf(&b, "\nModule and register allocation:\n%s", res.Design.Alloc.String(g))
	return b.String(), nil
}

// SweepRow is one parameter-sweep measurement.
type SweepRow struct {
	K           int
	Alpha, Beta float64
	Modules     int
	Registers   int
	Mux         int
	ExecTime    int
	Area        float64
}

// ParameterSweep varies (k, α, β) on a benchmark, substantiating the
// paper's §5 remark that "the chosen parameters do not influence so much
// the final results". The grid points are independent synthesis runs, so
// they fan out across up to `workers` goroutines (0 = one per CPU) with
// rows collected in grid order; the output is identical at every worker
// count. The worker budget is split between the grid fan-out and the
// tie-policy exploration inside each synthesis — handing the full budget
// to both layers would multiply them into workers² goroutines. st (may be
// nil) collects per-stage synthesis statistics across all grid points.
func ParameterSweep(bench string, width, workers int, st *stats.Stats) ([]SweepRow, error) {
	g, err := dfg.ByName(bench, width)
	if err != nil {
		return nil, err
	}
	type point struct {
		k    int
		a, b float64
	}
	var grid []point
	for _, k := range []int{1, 2, 3, 5} {
		for _, ab := range [][2]float64{{2, 1}, {10, 1}, {1, 10}, {1, 1}} {
			grid = append(grid, point{k, ab[0], ab[1]})
		}
	}
	rows := make([]SweepRow, len(grid))
	outer, inner := parallel.Split(workers, len(grid))
	err = parallel.ForEachCtx(context.TODO(), outer, len(grid), func(i int) error {
		pt := grid[i]
		par := core.DefaultParams(width)
		par.K = pt.k
		par.Alpha, par.Beta = pt.a, pt.b
		par.LoopSignal = loopSignalFor(bench)
		par.Workers = inner
		par.Stats = st
		res, err := core.SynthesizeCtx(context.TODO(), g, par)
		if err != nil {
			return err
		}
		rows[i] = SweepRow{
			K: pt.k, Alpha: pt.a, Beta: pt.b,
			Modules:   res.Design.Alloc.NumModules(),
			Registers: res.Design.Alloc.NumRegs(),
			Mux:       res.Mux.Muxes,
			ExecTime:  res.ExecTime,
			Area:      res.Area.Total,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderSweep formats a parameter sweep.
func RenderSweep(bench string, rows []SweepRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Parameter sweep on %s (k, alpha, beta -> allocation shape):\n", bench)
	fmt.Fprintf(&b, "%3s %6s %6s | %8s %10s %5s %10s %10s\n", "k", "alpha", "beta", "#modules", "#registers", "#mux", "exec", "area")
	for _, r := range rows {
		fmt.Fprintf(&b, "%3d %6.0f %6.0f | %8d %10d %5d %10d %10.0f\n",
			r.K, r.Alpha, r.Beta, r.Modules, r.Registers, r.Mux, r.ExecTime, r.Area)
	}
	return b.String()
}

// AblationRow measures one algorithm variant.
type AblationRow struct {
	Variant   string
	Modules   int
	Registers int
	Mux       int
	SelfLoops int
	Area      float64
	MeanTest  float64
}

// Ablations isolates the paper's design choices on one benchmark:
// balance-driven versus connectivity-driven pair selection, SR-guided
// merge-sort versus naive append rescheduling, and integrated versus
// phase-separated (frozen-schedule) synthesis. The variants fan out
// across up to `workers` goroutines with rows collected in variant order;
// the budget is split between the variant fan-out and the tie-policy
// exploration inside each synthesis. st (may be nil) collects per-stage
// synthesis statistics across all variants.
func Ablations(bench string, width, workers int, st *stats.Stats) ([]AblationRow, error) {
	g, err := dfg.ByName(bench, width)
	if err != nil {
		return nil, err
	}
	variants := []struct {
		name string
		mod  func(*core.Params)
	}{
		{"paper (balance + merge-sort SR)", func(p *core.Params) {}},
		{"connectivity selection", func(p *core.Params) { p.Selection = core.SelectConnectivity }},
		{"append rescheduling", func(p *core.Params) { p.Reschedule = core.RescheduleAppend }},
		{"frozen schedule (phase-separated)", func(p *core.Params) { p.Reschedule = core.RescheduleFrozen }},
	}
	rows := make([]AblationRow, len(variants))
	outer, inner := parallel.Split(workers, len(variants))
	err = parallel.ForEachCtx(context.TODO(), outer, len(variants), func(i int) error {
		v := variants[i]
		par := core.DefaultParams(width)
		par.LoopSignal = loopSignalFor(bench)
		par.Workers = inner
		par.Stats = st
		v.mod(&par)
		res, err := core.SynthesizeCtx(context.TODO(), g, par)
		if err != nil {
			return err
		}
		rows[i] = AblationRow{
			Variant:   v.name,
			Modules:   res.Design.Alloc.NumModules(),
			Registers: res.Design.Alloc.NumRegs(),
			Mux:       res.Mux.Muxes,
			SelfLoops: res.Design.SelfLoops(),
			Area:      res.Area.Total,
			MeanTest:  testability.MeanTestability(res.Design, res.Metrics),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderAblations formats the ablation study.
func RenderAblations(bench string, rows []AblationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Design-choice ablations on %s:\n", bench)
	fmt.Fprintf(&b, "%-36s %8s %10s %5s %10s %10s %10s\n", "variant", "#modules", "#registers", "#mux", "self-loops", "area", "mean-test")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-36s %8d %10d %5d %10d %10.0f %10.4f\n",
			r.Variant, r.Modules, r.Registers, r.Mux, r.SelfLoops, r.Area, r.MeanTest)
	}
	return b.String()
}

// ScanStudy measures the partial-scan extension: coverage and effort as
// scan registers (selected by the testability-guided greedy of package
// scan) are added to the synthesized design, over the full collapsed
// fault list. `workers` is the goroutine budget inside the synthesis and
// each campaign (0 = one per CPU).
func ScanStudy(bench string, width, maxScan int, seed int64, workers int) (string, error) {
	g, err := dfg.ByName(bench, width)
	if err != nil {
		return "", err
	}
	par := core.DefaultParams(width)
	par.LoopSignal = loopSignalFor(bench)
	par.Workers = workers
	res, err := core.SynthesizeCtx(context.TODO(), g, par)
	if err != nil {
		return "", err
	}
	sel := scan.Select(res.Design, res.Metrics.Config(), maxScan, 1e-9)
	var b strings.Builder
	fmt.Fprintf(&b, "scan selection on %s (%d-bit): registers %v\n", bench, width, sel.Regs)
	fmt.Fprintf(&b, "%-10s %10s %12s %12s %12s\n", "scan regs", "mean-test", "coverage", "effort", "cycles")
	cfg := atpg.DefaultConfig(seed)
	cfg.SampleFaults = 0
	cfg.RandomBatches = 2
	cfg.Workers = workers
	for n := 0; n <= len(sel.Regs); n++ {
		nl, err := rtl.GenerateWithScan(res.Design, width, rtl.NormalMode, sel.Regs[:n])
		if err != nil {
			return "", err
		}
		acfg := cfg
		acfg.MaxFrames = nl.ATPGFrames(acfg.MaxFrames)
		ares, err := atpg.RunCtx(context.TODO(), nl.C, acfg)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%-10d %10.4f %11.2f%% %12d %12d\n",
			n, sel.MeanTestability[n], 100*ares.Coverage, ares.Effort, ares.TestCycles)
	}
	return b.String(), nil
}

// BISTStudy measures the built-in self-test extension: fault coverage and
// simulation cost of a self-test session at 1 lane (the historical
// single-session evaluator) and at 64 lanes (PPSFP — every simulator lane
// carries an independent pseudorandom session), over increasing session
// lengths. passes/session is the number of whole-circuit simulation
// passes spent per pseudorandom session: the lane-parallel evaluator
// divides it by the lane count. `workers` is the goroutine budget of the
// synthesis (the session replay itself is sequential).
func BISTStudy(bench string, width, nTpg, nMisr int, cyclesList []int, faults int, seed uint64, workers int) (string, error) {
	g, err := dfg.ByName(bench, width)
	if err != nil {
		return "", err
	}
	par := core.DefaultParams(width)
	par.LoopSignal = loopSignalFor(bench)
	par.Workers = workers
	res, err := core.SynthesizeCtx(context.TODO(), g, par)
	if err != nil {
		return "", err
	}
	tpg, misr := scan.SelectBIST(res.Design, res.Metrics, nTpg, nMisr)
	nl, err := rtl.GenerateBIST(res.Design, width, rtl.NormalMode, tpg, misr)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "BIST on %s (%d-bit): TPG %v, MISR %v, %d sampled faults\n",
		bench, width, tpg, misr, faults)
	fmt.Fprintf(&b, "%-8s %6s %12s %16s\n", "cycles", "lanes", "coverage", "passes/session")
	for _, cycles := range cyclesList {
		for _, lanes := range []int{1, 64} {
			out, err := atpg.RunBISTCfgCtx(context.TODO(), nl.C, faults, cycles,
				atpg.BISTConfig{Lanes: lanes, Seed: seed, TPGRegs: nl.BISTTpg})
			if err != nil {
				return "", err
			}
			pps := 0.0
			if out.Evaluated > 0 {
				pps = float64(out.Passes) / float64(out.Evaluated*out.Lanes)
			}
			fmt.Fprintf(&b, "%-8d %6d %11.2f%% %16.2f\n", cycles, lanes, 100*out.Coverage, pps)
		}
	}
	return b.String(), nil
}
