package report

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/dfg"
	"repro/internal/dfggen"
)

// GenSuiteRow is one generated benchmark's measurement: the spec's
// structural figures next to the full synthesis + ATPG cell.
type GenSuiteRow struct {
	Name  string // canonical gen: benchmark name
	Seed  uint64
	Ops   int
	Depth int // critical path in ops
	Cell  Cell
}

// GenSuite is an experiment table over a seeded family of generated
// benchmarks: the scenario-diversity counterpart of the paper's fixed
// Tables 1-3, used to check that a flow's quality figures hold beyond
// the three published behaviours.
type GenSuite struct {
	Method string
	Width  int
	Rows   []GenSuiteRow
}

// RunGenSuiteCtx measures one synthesis flow over a family of generated
// specs at one width. Rows share the cfg.Workers budget exactly like
// RunTableCtx cells.
func RunGenSuiteCtx(ctx context.Context, specs []dfggen.Spec, method string, width int, cfg Config) (*GenSuite, error) {
	suite := &GenSuite{Method: method, Width: width, Rows: make([]GenSuiteRow, len(specs))}
	err := fanOut(len(specs), cfg, func(idx int, cellCfg Config) error {
		ns, err := specs[idx].Normalize()
		if err != nil {
			return err
		}
		name := ns.Name()
		row := GenSuiteRow{Name: name, Seed: ns.Seed, Ops: ns.Ops}
		g, err := dfg.ByName(name, width)
		if err != nil {
			return err
		}
		row.Depth = dfggen.Depth(g)
		cell, err := RunCellCtx(ctx, name, method, width, cellCfg)
		if err != nil {
			return err
		}
		row.Cell = *cell
		suite.Rows[idx] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return suite, nil
}

// Render draws the suite as an aligned text table.
func (s *GenSuite) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Generated suite — method %s, width %d, %d behaviours\n", s.Method, s.Width, len(s.Rows))
	header := []string{"seed", "ops", "depth", "mod", "reg", "mux", "exec", "cov%", "effort", "cycles", "area", ""}
	rows := [][]string{header}
	for _, r := range s.Rows {
		mark := ""
		if r.Cell.Partial {
			mark = "*" + r.Cell.Exhausted
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", r.Seed),
			fmt.Sprintf("%d", r.Ops),
			fmt.Sprintf("%d", r.Depth),
			fmt.Sprintf("%d", r.Cell.Modules),
			fmt.Sprintf("%d", r.Cell.Registers),
			fmt.Sprintf("%d", r.Cell.Mux),
			fmt.Sprintf("%d", r.Cell.ExecTime),
			fmt.Sprintf("%.1f", r.Cell.Coverage*100),
			fmt.Sprintf("%d", r.Cell.TGEffort),
			fmt.Sprintf("%d", r.Cell.TestCycles),
			fmt.Sprintf("%.0f", r.Cell.Area),
			mark,
		})
	}
	widths := make([]int, len(header))
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for _, row := range rows {
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	if len(s.Rows) > 0 {
		b.WriteString(s.summaryLine())
	}
	return b.String()
}

// summaryLine aggregates the suite: mean coverage and exec time tell at
// a glance whether a flow's quality holds across the family.
func (s *GenSuite) summaryLine() string {
	var cov, area float64
	var exec, partial int
	for _, r := range s.Rows {
		cov += r.Cell.Coverage
		area += r.Cell.Area
		exec += r.Cell.ExecTime
		if r.Cell.Partial {
			partial++
		}
	}
	n := float64(len(s.Rows))
	return fmt.Sprintf("mean: coverage %.1f%%, exec %.1f steps, area %.0f; %d partial\n",
		cov/n*100, float64(exec)/n, area/n, partial)
}

// Markdown renders the suite as a GitHub-flavored markdown table.
func (s *GenSuite) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### Generated suite — method %s, width %d\n\n", s.Method, s.Width)
	b.WriteString("| name | ops | depth | mod | reg | mux | exec | cov% | effort | cycles | area |\n")
	b.WriteString("|---|---|---|---|---|---|---|---|---|---|---|\n")
	for _, r := range s.Rows {
		name := r.Name
		if r.Cell.Partial {
			name += " \\*"
		}
		fmt.Fprintf(&b, "| %s | %d | %d | %d | %d | %d | %d | %.1f | %d | %d | %.0f |\n",
			name, r.Ops, r.Depth, r.Cell.Modules, r.Cell.Registers, r.Cell.Mux,
			r.Cell.ExecTime, r.Cell.Coverage*100, r.Cell.TGEffort, r.Cell.TestCycles, r.Cell.Area)
	}
	return b.String()
}
