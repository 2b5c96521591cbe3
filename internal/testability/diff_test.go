package testability_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/etpn"
	"repro/internal/scan"
	"repro/internal/sched"
	"repro/internal/testability"
)

// sameMetrics fails t unless got and want are bit-identical on every
// node.
func sameMetrics(t *testing.T, label string, d *etpn.Design, got, want *testability.Metrics) {
	t.Helper()
	for name, pair := range map[string][2][]float64{
		"CC": {got.CC, want.CC}, "SC": {got.SC, want.SC},
		"CO": {got.CO, want.CO}, "SO": {got.SO, want.SO},
	} {
		g, r := pair[0], pair[1]
		if len(g) != len(d.Nodes) || len(r) != len(d.Nodes) {
			t.Fatalf("%s: %s has %d nodes, reference %d, design %d", label, name, len(g), len(r), len(d.Nodes))
		}
		for id := range g {
			if math.Float64bits(g[id]) != math.Float64bits(r[id]) {
				t.Fatalf("%s: %s[%s] = %v, reference %v", label, name, d.Nodes[id].Name, g[id], r[id])
			}
		}
	}
}

// TestAnalyzeMatchesReferenceOnScanSteps compares Analyze with the
// design-based reference on every scan set scan.Select evaluates — each
// prefix of its selection with and without each register not yet in it —
// for the final design of every synthesis flow and the one-to-one design
// of every named benchmark at 4 and 8 bits. The metrics must be
// bit-identical.
func TestAnalyzeMatchesReferenceOnScanSteps(t *testing.T) {
	compared := 0
	check := func(label string, d *etpn.Design) {
		sel := scan.Select(d, len(d.Alloc.Regs), math.Inf(-1))
		scanned := map[int]bool{}
		for k := 0; ; k++ {
			sets := []map[int]bool{scanned}
			for _, r := range d.Alloc.Regs {
				if node := d.RegNode(r.ID); !scanned[node] {
					set := map[int]bool{node: true}
					for n := range scanned {
						set[n] = true
					}
					sets = append(sets, set)
				}
			}
			for _, set := range sets {
				sameMetrics(t, label, d, testability.Analyze(d, set), testability.RefAnalyze(d, set))
				compared++
			}
			if k == len(sel.Regs) {
				break
			}
			next := map[int]bool{d.RegNode(sel.Regs[k]): true}
			for n := range scanned {
				next[n] = true
			}
			scanned = next
		}
	}
	for _, name := range dfg.BenchmarkNames() {
		for _, w := range []int{4, 8} {
			g, err := dfg.ByName(name, w)
			if err != nil {
				t.Fatal(err)
			}
			s, err := sched.NewProblem(g).ASAP()
			if err != nil {
				t.Fatal(err)
			}
			life := alloc.Lifetimes(g, s)
			d, err := etpn.Build(g, s, alloc.Default(g, sched.ExactClass, life), life, "")
			if err != nil {
				t.Fatal(err)
			}
			check(g.Name+"/default", d)
			for _, method := range core.Methods() {
				par := core.DefaultParams(w)
				par.LoopSignal = g.Loop
				par.Workers = 1
				res, err := core.RunCtx(context.Background(), method, g, par)
				if err != nil {
					t.Fatalf("%s-%d/%s: %v", name, w, method, err)
				}
				check(g.Name+"/"+method, res.Design)
			}
		}
	}
	t.Logf("%d scan sets compared", compared)
}
