package etpn_test

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/cost"
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

// TestArcIndexMatchesReference compares ArcsInto and ArcsFrom, and the
// design's wiring view (Into, From, Kind and Class), with the reference
// arc scans and the nodes for every node of every sweep design.
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
	links := func(arcs []*etpn.Arc) []etpn.Link {
		ls := []etpn.Link{}
		for _, a := range arcs {
			ls = append(ls, etpn.Link{From: a.From, To: a.To, Port: a.ToPort})
		}
		return ls
	}
	for _, sd := range sweepDesigns(t) {
		d, w := sd.d, sd.d.Wiring()
		if w.Nodes() != len(d.Nodes) {
			t.Fatalf("%s: wiring has %d nodes, design %d", sd.label, w.Nodes(), len(d.Nodes))
		}
		for _, n := range d.Nodes {
			if !same(d.ArcsInto(n.ID), etpn.RefArcsInto(d, n.ID)) {
				t.Fatalf("%s: ArcsInto(%d) %v, reference %v", sd.label, n.ID, d.ArcsInto(n.ID), etpn.RefArcsInto(d, n.ID))
			}
			if !same(d.ArcsFrom(n.ID), etpn.RefArcsFrom(d, n.ID)) {
				t.Fatalf("%s: ArcsFrom(%d) %v, reference %v", sd.label, n.ID, d.ArcsFrom(n.ID), etpn.RefArcsFrom(d, n.ID))
			}
			in, out := links(etpn.RefArcsInto(d, n.ID)), links(etpn.RefArcsFrom(d, n.ID))
			if !slices.Equal(w.Into(n.ID), in) || !slices.Equal(w.From(n.ID), out) {
				t.Fatalf("%s: node %s links in %v and out %v, reference %v and %v", sd.label, n.Name, w.Into(n.ID), w.From(n.ID), in, out)
			}
			if w.Kind(n.ID) != n.Kind || w.Class(n.ID) != n.Class {
				t.Fatalf("%s: node %s is %s %q in the wiring, %s %q in the design", sd.label, n.Name, w.Kind(n.ID), w.Class(n.ID), n.Kind, n.Class)
			}
		}
	}
}

// muxStats counts d's multiplexers with cost.Estimator, from d's graph and
// allocation.
func muxStats(t *testing.T, d *etpn.Design) cost.MuxStats {
	t.Helper()
	_, ms, err := cost.NewEstimator(nil, d.G.Width).Estimate(d.G, d.Sched, d.Alloc, d.Life, d.LoopSignal)
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

// TestMuxStatsMatchesReference compares cost.Estimator's multiplexer count
// with the map-based one on every sweep design.
func TestMuxStatsMatchesReference(t *testing.T) {
	muxes := 0
	for _, sd := range sweepDesigns(t) {
		got := muxStats(t, sd.d)
		if m, in := etpn.RefMuxStats(sd.d); got != (cost.MuxStats{Muxes: m, Inputs: in}) {
			t.Fatalf("%s: mux %+v, reference %d muxes with %d inputs", sd.label, got, m, in)
		}
		muxes += got.Muxes
	}
	if muxes == 0 {
		t.Fatal("no sweep design needs a multiplexer; the comparison is vacuous")
	}
}

func TestMuxStatsOneToOneIsZero(t *testing.T) {
	// With one module per op and one register per value, every destination
	// has a single source: no multiplexers.
	g := dfg.Ex(8)
	s, err := sched.NewProblem(g).ASAP()
	if err != nil {
		t.Fatal(err)
	}
	life := alloc.Lifetimes(g, s)
	d, err := etpn.Build(g, s, alloc.Default(g, sched.ExactClass, life), life, "")
	if err != nil {
		t.Fatal(err)
	}
	if ms := muxStats(t, d); ms.Muxes != 0 || ms.Inputs != 0 {
		t.Errorf("1:1 allocation needs no muxes, got %+v", ms)
	}
}

func TestMuxStatsCAMADStyleEx(t *testing.T) {
	// Reproduce the paper's Table 1 CAMAD row structure: all four mults in
	// one module, all four +/- ops in another, one register per value.
	// The paper reports #Mux = 4 (both operand ports of both modules).
	g := dfg.Ex(8)
	p := sched.NewProblem(g)
	// Serialize ops per class so the binding is legal.
	var muls, alus []dfg.NodeID
	for _, n := range g.Nodes() {
		if n.Kind == dfg.OpMul {
			muls = append(muls, n.ID)
		} else {
			alus = append(alus, n.ID)
		}
		p.ModuleOf[n.ID] = map[bool]int{true: 0, false: 1}[n.Kind == dfg.OpMul]
	}
	s, err := p.List()
	if err != nil {
		t.Fatal(err)
	}
	life := alloc.Lifetimes(g, s)
	a := &alloc.Allocation{ModuleOf: make([]int, g.NumNodes()), RegOf: make([]int, g.NumValues())}
	a.Modules = []*alloc.ModuleGroup{
		{ID: 0, Class: "*", Ops: muls},
		{ID: 1, Class: "±", Ops: alus},
	}
	for _, op := range muls {
		a.ModuleOf[op] = 0
	}
	for _, op := range alus {
		a.ModuleOf[op] = 1
	}
	for v, l := range life {
		a.RegOf[v] = -1
		if l.Stored {
			a.RegOf[v] = len(a.Regs)
			a.Regs = append(a.Regs, &alloc.RegGroup{ID: len(a.Regs), Vals: []dfg.ValueID{dfg.ValueID(v)}})
		}
	}
	d, err := etpn.Build(g, s, a, life, "")
	if err != nil {
		t.Fatal(err)
	}
	if ms := muxStats(t, d); ms.Muxes != 4 {
		t.Errorf("CAMAD-style Ex has %d muxes, paper reports 4", ms.Muxes)
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
				if got := etpn.ExecutionTime(d.Sched, d.LoopSignal, lb); got != want {
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
		if got := etpn.ExecutionTime(sd.d.Sched, sd.d.LoopSignal, lb); got != want {
			t.Fatalf("%s: ExecutionTime %d, reference %d", sd.label, got, want)
		}
		if sd.exec >= 0 && sd.exec != want {
			t.Fatalf("%s: flow reported execution time %d, reference %d", sd.label, sd.exec, want)
		}
	}
}
