package etpn_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/dfggen"
	"repro/internal/etpn"
	"repro/internal/sched"
)

// TestArcIndexMatchesReference compares ArcsInto and ArcsFrom with the
// reference arc scans for every node of the default and final designs of
// the named benchmarks at widths 4, 8 and 16 and the 64 generator specs.
func TestArcIndexMatchesReference(t *testing.T) {
	var graphs []*dfg.Graph
	var loops []string
	for _, name := range dfg.BenchmarkNames() {
		loop := ""
		if name == dfg.BenchDiffeq || name == dfg.BenchPaulin {
			loop = "exit"
		}
		for _, w := range []int{4, 8, 16} {
			g, err := dfg.ByName(name, w)
			if err != nil {
				t.Fatal(err)
			}
			graphs, loops = append(graphs, g), append(loops, loop)
		}
	}
	mixes, shapes := dfggen.Mixes(), dfggen.Shapes()
	for i := 0; i < 64; i++ {
		spec := dfggen.Spec{
			Seed: uint64(1000 + i), Ops: 10 + i%7,
			Mix: mixes[i%len(mixes)], Shape: shapes[i%len(shapes)],
			Fanout: 1 + i%4, Loop: i%3 == 0, Cond: i%4 == 0,
		}
		g, err := dfggen.Generate(spec, 4)
		if err != nil {
			t.Fatal(err)
		}
		graphs, loops = append(graphs, g), append(loops, dfggen.LoopSignal(spec.Name()))
	}
	same := func(a, b []*etpn.Arc) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	for i, g := range graphs {
		s, err := sched.NewProblem(g).ASAP()
		if err != nil {
			t.Fatal(err)
		}
		life := alloc.Lifetimes(g, s)
		d, err := etpn.Build(g, s, alloc.Default(g, sched.ExactClass, life), life, etpn.Options{})
		if err != nil {
			t.Fatal(err)
		}
		designs := map[string]*etpn.Design{"default": d}
		for _, method := range core.Methods() {
			par := core.DefaultParams(g.Width)
			par.LoopSignal = loops[i]
			par.Workers = 1
			res, err := core.RunCtx(context.Background(), method, g, par)
			if err != nil {
				t.Fatalf("%s/%s: %v", g.Name, method, err)
			}
			designs[method] = res.Design
		}
		for kind, d := range designs {
			label := fmt.Sprintf("%s-%d/%s", g.Name, g.Width, kind)
			for _, n := range d.Nodes {
				if !same(d.ArcsInto(n.ID), etpn.RefArcsInto(d, n.ID)) {
					t.Fatalf("%s: ArcsInto(%d) %v, reference %v", label, n.ID, d.ArcsInto(n.ID), etpn.RefArcsInto(d, n.ID))
				}
				if !same(d.ArcsFrom(n.ID), etpn.RefArcsFrom(d, n.ID)) {
					t.Fatalf("%s: ArcsFrom(%d) %v, reference %v", label, n.ID, d.ArcsFrom(n.ID), etpn.RefArcsFrom(d, n.ID))
				}
			}
		}
	}
}
