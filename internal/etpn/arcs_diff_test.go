package etpn_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/dfggen"
	"repro/internal/etpn"
	"repro/internal/sched"
)

// sweepDesign is one design of the differential sweeps: the default
// design of a behaviour, or the final design of one flow with the
// execution time the flow reported (-1 for a default design).
type sweepDesign struct {
	label string
	d     *etpn.Design
	exec  int
}

var sweep struct {
	once    sync.Once
	designs []sweepDesign
	err     error
}

// sweepDesigns returns the default and final designs of every flow over
// the named benchmarks at widths 4, 8 and 16 and the 64 generator specs,
// synthesized once per test binary.
func sweepDesigns(t *testing.T) []sweepDesign {
	t.Helper()
	sweep.once.Do(func() { sweep.designs, sweep.err = buildSweep() })
	if sweep.err != nil {
		t.Fatal(sweep.err)
	}
	return sweep.designs
}

func buildSweep() ([]sweepDesign, error) {
	var graphs []*dfg.Graph
	for _, name := range dfg.BenchmarkNames() {
		for _, w := range []int{4, 8, 16} {
			g, err := dfg.ByName(name, w)
			if err != nil {
				return nil, err
			}
			graphs = append(graphs, g)
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
			return nil, err
		}
		graphs = append(graphs, g)
	}
	var designs []sweepDesign
	for _, g := range graphs {
		prefix := fmt.Sprintf("%s-%d", g.Name, g.Width)
		s, err := sched.NewProblem(g).ASAP()
		if err != nil {
			return nil, err
		}
		life := alloc.Lifetimes(g, s)
		d, err := etpn.Build(g, s, alloc.Default(g, sched.ExactClass, life), life, "")
		if err != nil {
			return nil, fmt.Errorf("%s: %w", prefix, err)
		}
		designs = append(designs, sweepDesign{prefix + "/default", d, -1})
		for _, method := range core.Methods() {
			par := core.DefaultParams(g.Width)
			par.LoopSignal = g.Loop
			par.Workers = 1
			res, err := core.RunCtx(context.Background(), method, g, par)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", prefix, method, err)
			}
			designs = append(designs, sweepDesign{prefix + "/" + method, res.Design, res.ExecTime})
		}
	}
	return designs, nil
}

// TestArcIndexMatchesReference compares ArcsInto and ArcsFrom with the
// reference arc scans for every node of every sweep design.
func TestArcIndexMatchesReference(t *testing.T) {
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
	for _, sd := range sweepDesigns(t) {
		d := sd.d
		for _, n := range d.Nodes {
			if !same(d.ArcsInto(n.ID), etpn.RefArcsInto(d, n.ID)) {
				t.Fatalf("%s: ArcsInto(%d) %v, reference %v", sd.label, n.ID, d.ArcsInto(n.ID), etpn.RefArcsInto(d, n.ID))
			}
			if !same(d.ArcsFrom(n.ID), etpn.RefArcsFrom(d, n.ID)) {
				t.Fatalf("%s: ArcsFrom(%d) %v, reference %v", sd.label, n.ID, d.ArcsFrom(n.ID), etpn.RefArcsFrom(d, n.ID))
			}
		}
	}
}

// TestMuxStatsMatchesReference compares the sorted per-node mux count
// with the map-based one on every sweep design.
func TestMuxStatsMatchesReference(t *testing.T) {
	muxes := 0
	for _, sd := range sweepDesigns(t) {
		got, want := sd.d.MuxStats(), etpn.RefMuxStats(sd.d)
		if got != want {
			t.Fatalf("%s: MuxStats %+v, reference %+v", sd.label, got, want)
		}
		muxes += got.Muxes
	}
	if muxes == 0 {
		t.Fatal("no sweep design needs a multiplexer; the comparison is vacuous")
	}
}

// TestExecutionTimeMatchesReference compares the closed-form execution
// time with the critical path of the timed Petri net it replaced: over
// schedule lengths 1..64, chain and loop, and loop bounds -1..8; and for
// every sweep design at the default loop bound, where a flow's reported
// execution time must agree too.
func TestExecutionTimeMatchesReference(t *testing.T) {
	for n := 1; n <= 64; n++ {
		for _, loop := range []string{"", "c"} {
			d := &etpn.Design{Sched: sched.Schedule{Len: n}, LoopSignal: loop}
			for lb := -1; lb <= 8; lb++ {
				want, err := etpn.RefExecutionTime(d, lb)
				if err != nil {
					t.Fatalf("len %d loop %q bound %d: reference: %v", n, loop, lb, err)
				}
				if got := d.ExecutionTime(lb); got != want {
					t.Fatalf("len %d loop %q bound %d: ExecutionTime %d, reference %d", n, loop, lb, got, want)
				}
			}
		}
	}
	lb := core.LoopBound
	for _, sd := range sweepDesigns(t) {
		want, err := etpn.RefExecutionTime(sd.d, lb)
		if err != nil {
			t.Fatalf("%s: reference: %v", sd.label, err)
		}
		if got := sd.d.ExecutionTime(lb); got != want {
			t.Fatalf("%s: ExecutionTime %d, reference %d", sd.label, got, want)
		}
		if sd.exec >= 0 && sd.exec != want {
			t.Fatalf("%s: flow reported execution time %d, reference %d", sd.label, sd.exec, want)
		}
	}
}
