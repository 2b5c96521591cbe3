// Package report runs the paper's experiments and renders their tables
// and figures: for each benchmark and synthesis flow it synthesizes the
// design at 4/8/16 bits, generates the gate-level implementation, runs the
// ATPG campaign, and assembles rows of module/register allocation, #mux,
// fault coverage, test-generation effort, test cycles and area — the
// columns of Tables 1-3 — plus the schedule listings of Figures 2-3, the
// Figure 1 rescheduling demonstration, the parameter sweep of §5, and the
// design-choice ablations.
package report

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/atpg"
	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/exec"
	"repro/internal/flow"
	"repro/internal/parallel"
	"repro/internal/stats"
)

// Cell is one (method, width) measurement of a table.
type Cell struct {
	Method string
	Width  int

	ModuleAlloc   string
	RegisterAlloc string
	Mux           int
	Modules       int
	Registers     int
	SelfLoops     int
	ExecTime      int

	Coverage   float64
	TGEffort   int64
	TestCycles int
	Area       float64

	Gates int
	DFFs  int

	// Partial marks a cell whose synthesis or ATPG campaign ran out of
	// budget (Exhausted names it): the figures are genuine best-so-far
	// measurements, rendered with a marker rather than aborting the row.
	Partial   bool   `json:",omitempty"`
	Exhausted string `json:",omitempty"`
}

// Table is a complete experiment table.
type Table struct {
	Title     string
	Benchmark string
	HasArea   bool
	Cells     []Cell
}

// Config tunes an experiment run.
type Config struct {
	// Widths lists the data-path bit widths (the paper uses 4, 8, 16).
	Widths []int
	// ATPGFor returns the campaign configuration per width.
	ATPGFor func(width int) atpg.Config
	// Workers is the total goroutine budget of the run (0 = one per CPU,
	// 1 = sequential), split between the cells run concurrently and the
	// goroutines inside each cell's synthesis and campaign (via
	// core.Params.Workers and atpg.Config.Workers). Results are identical
	// at every worker count.
	Workers int
	// Stats, when non-nil, collects per-stage synthesis counters and
	// timers across every cell. Purely observational.
	Stats *stats.Stats
}

// DefaultConfig returns the configuration reproducing the paper's setup.
func DefaultConfig(seed int64) Config {
	return Config{
		Widths: []int{4, 8, 16},
		ATPGFor: func(width int) atpg.Config {
			c := atpg.DefaultConfig(seed + int64(width))
			if width >= 16 {
				// Keep 16-bit campaigns tractable: smaller fault sample and
				// fewer restarts (PODEM implications scale with gate count x
				// frames).
				c.SampleFaults = 1000
				c.Restarts = 1
			}
			return c
		},
	}
}

// CapFaults caps every width's fault sample at n; n <= 0 keeps the
// per-width samples.
func (c *Config) CapFaults(n int) {
	base := c.ATPGFor
	c.ATPGFor = func(width int) atpg.Config {
		a := base(width)
		if n > 0 && n < a.SampleFaults {
			a.SampleFaults = n
		}
		return a
	}
}

// paramsFor returns the synthesis parameters per width; the paper uses
// (k,α,β) = (3,2,1), (3,10,1), (3,1,10) for 4, 8 and 16 bits.
func paramsFor(width int) core.Params {
	p := core.DefaultParams(width)
	switch width {
	case 8:
		p.Alpha, p.Beta = 10, 1
	case 16:
		p.Alpha, p.Beta = 1, 10
	}
	return p
}

// RunTableCtx executes the full table for one benchmark: every method at
// every width. Cancellation degrades gracefully: the synthesis and
// campaign inside each cell stop at their next budget boundary and the
// cell lands Partial rather than erroring, so the table always renders
// (with partial markers).
func RunTableCtx(ctx context.Context, bench string, cfg Config) (*Table, error) {
	tbl := &Table{
		Title:     fmt.Sprintf("Experimental results on the area-optimized %s benchmark", bench),
		Benchmark: bench,
		HasArea:   true,
	}
	type job struct {
		method string
		width  int
	}
	var jobs []job
	for _, method := range core.Methods() {
		for _, w := range cfg.Widths {
			jobs = append(jobs, job{method, w})
		}
	}
	cells := make([]Cell, len(jobs))
	err := fanOut(len(jobs), cfg, func(idx int, cellCfg Config) error {
		cell, err := RunCellCtx(ctx, bench, jobs[idx].method, jobs[idx].width, cellCfg)
		if err != nil {
			return err
		}
		cells[idx] = *cell
		return nil
	})
	if err != nil {
		return nil, err
	}
	tbl.Cells = cells
	return tbl, nil
}

// fanOut runs cell(idx, cellCfg) for every idx in [0, n), with the
// cfg.Workers budget split by parallel.Split between the cells run
// concurrently and the goroutines inside each: cellCfg is cfg with
// Workers set to each cell's share. The pool runs without ctx: each cell
// degrades to Partial on its own, so every job returns and the table
// always renders.
func fanOut(n int, cfg Config, cell func(idx int, cellCfg Config) error) error {
	outer, inner := parallel.Split(cfg.Workers, n)
	cellCfg := cfg
	cellCfg.Workers = inner
	return parallel.ForEachCtx(context.Background(), outer, n, func(idx int) error {
		return cell(idx, cellCfg)
	})
}

// RunCellCtx measures one (benchmark, method, width) point. A deadline
// inside the cell degrades it to a Partial measurement (synthesis keeps
// its committed mergers, the campaign its best-so-far coverage) rather
// than an error.
func RunCellCtx(ctx context.Context, bench, method string, width int, cfg Config) (*Cell, error) {
	g, err := dfg.ByName(bench, width)
	if err != nil {
		return nil, err
	}
	par := paramsFor(width)
	par.LoopSignal, par.Workers, par.Stats = g.Loop, cfg.Workers, cfg.Stats
	acfg := cfg.ATPGFor(width)
	acfg.Workers = cfg.Workers
	o, err := flow.Run(ctx, flow.Spec{Method: method, Graph: g, Params: par, ATPG: acfg})
	if err != nil {
		return nil, fmt.Errorf("%s/%s/%d: %w", bench, method, width, err)
	}
	res, nl, ares := o.Synth, o.Netlist, o.ATPG
	modStr, regStr := allocStrings(res)
	cell := &Cell{
		Method: method, Width: width,
		ModuleAlloc: modStr, RegisterAlloc: regStr,
		Mux: res.Mux.Muxes, Modules: res.Design.Alloc.NumModules(),
		Registers: res.Design.Alloc.NumRegs(), SelfLoops: res.Design.SelfLoops(),
		ExecTime: res.ExecTime,
		Coverage: ares.Coverage, TGEffort: ares.Effort, TestCycles: ares.TestCycles,
		Area:  res.Area.Total,
		Gates: nl.C.NumGates(), DFFs: len(nl.C.DFFs),
	}
	switch {
	case res.Status == exec.StatusPartial:
		cell.Partial, cell.Exhausted = true, res.Exhausted
	case ares.Status == exec.StatusPartial:
		cell.Partial, cell.Exhausted = true, ares.Exhausted
	}
	return cell, nil
}

func allocStrings(res *core.Result) (string, string) {
	g := res.Design.G
	var mods, regs []string
	for _, m := range res.Design.Alloc.Modules {
		names := make([]string, len(m.Ops))
		for i, op := range m.Ops {
			names[i] = g.Node(op).Name
		}
		mods = append(mods, fmt.Sprintf("(%s): %s", m.Class, strings.Join(names, ",")))
	}
	for _, r := range res.Design.Alloc.Regs {
		names := make([]string, len(r.Vals))
		for i, v := range r.Vals {
			names[i] = g.Value(v).Name
		}
		regs = append(regs, "R: "+strings.Join(names, ","))
	}
	return strings.Join(mods, "  "), strings.Join(regs, "  ")
}

// methodLabel maps internal method names to the paper's row labels.
func methodLabel(method string) string {
	switch method {
	case core.MethodCAMAD:
		return "CAMAD"
	case core.MethodApproach1:
		return "Approach 1"
	case core.MethodApproach2:
		return "Approach 2"
	case core.MethodOurs:
		return "Ours"
	}
	return method
}

// Render formats the table in the style of the paper's Tables 1-3.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	fmt.Fprintf(&b, "%s\n", strings.Repeat("=", len(t.Title)))
	for _, cells := range t.rows() {
		fmt.Fprintf(&b, "\n%s\n", methodLabel(cells[0].Method))
		fmt.Fprintf(&b, "  Module allocation:   %s\n", cells[0].ModuleAlloc)
		fmt.Fprintf(&b, "  Register allocation: %s\n", cells[0].RegisterAlloc)
		fmt.Fprintf(&b, "  #Mux: %d   #Modules: %d   #Registers: %d   Self-loops: %d   Exec steps: %d\n",
			cells[0].Mux, cells[0].Modules, cells[0].Registers, cells[0].SelfLoops, cells[0].ExecTime)
		fmt.Fprintf(&b, "  %5s  %10s  %14s  %12s  %10s  %8s\n",
			"#Bit", "Fault cov.", "TG effort", "Test cycles", "Area", "Gates")
		for _, c := range cells {
			fmt.Fprintf(&b, "  %5d  %9.2f%%  %14d  %12d  %10.0f  %8d%s\n",
				c.Width, 100*c.Coverage, c.TGEffort, c.TestCycles, c.Area, c.Gates, partialMark(c))
		}
	}
	if n := t.Partials(); n > 0 {
		fmt.Fprintf(&b, "\n* %d partial cell(s): a budget ran out before the cell completed; figures are best-so-far.\n", n)
	}
	return b.String()
}

// rows groups the cells by method in the paper's row order, each
// method's cells by ascending width.
func (t *Table) rows() [][]Cell {
	byMethod := map[string][]Cell{}
	for _, c := range t.Cells {
		byMethod[c.Method] = append(byMethod[c.Method], c)
	}
	var rows [][]Cell
	for _, method := range core.Methods() {
		if cells := byMethod[method]; len(cells) > 0 {
			sort.Slice(cells, func(i, j int) bool { return cells[i].Width < cells[j].Width })
			rows = append(rows, cells)
		}
	}
	return rows
}

// partialMark renders the partial-cell marker appended to a table row.
func partialMark(c Cell) string {
	if c.Partial {
		return "  *partial:" + c.Exhausted
	}
	return ""
}

// Partials counts the table's partial cells.
func (t *Table) Partials() int {
	n := 0
	for _, c := range t.Cells {
		if c.Partial {
			n++
		}
	}
	return n
}

// Markdown renders the table as a GitHub-flavoured markdown table for
// EXPERIMENTS.md.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s\n\n", t.Title)
	fmt.Fprintf(&b, "| Synthesis | #Mux | Mods | Regs | #Bit | Fault coverage | TG effort | Test cycles | Area |\n")
	fmt.Fprintf(&b, "|---|---|---|---|---|---|---|---|---|\n")
	for _, cells := range t.rows() {
		for i, c := range cells {
			label := ""
			mux, mods, regs := "", "", ""
			if i == 0 {
				label = methodLabel(c.Method)
				mux = fmt.Sprint(c.Mux)
				mods = fmt.Sprint(c.Modules)
				regs = fmt.Sprint(c.Registers)
			}
			mark := ""
			if c.Partial {
				mark = " \\*"
			}
			fmt.Fprintf(&b, "| %s | %s | %s | %s | %d | %.2f%%%s | %d | %d | %.0f |\n",
				label, mux, mods, regs, c.Width, 100*c.Coverage, mark, c.TGEffort, c.TestCycles, c.Area)
		}
	}
	if n := t.Partials(); n > 0 {
		fmt.Fprintf(&b, "\n\\* %d partial cell(s): budget exhausted before completion; figures are best-so-far.\n", n)
	}
	return b.String()
}
