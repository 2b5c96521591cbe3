package cost_test

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dfg"
	"repro/internal/dfggen"
	"repro/internal/etpn"
	"repro/internal/hdl"
	"repro/internal/sched"
)

// sweepDesigns returns the designs the differential tests compare on: for
// every named benchmark at widths 4, 8 and 16 and for the 64 generator
// specs of the generated-suite sweep at width 4, the default allocation
// (one module per operation, one register per value) of the ASAP schedule
// and the final design of every synthesis flow.
func sweepDesigns(t *testing.T) map[string]*etpn.Design {
	t.Helper()
	type behaviour struct {
		g     *dfg.Graph
		width int
	}
	var bs []behaviour
	for _, name := range dfg.BenchmarkNames() {
		for _, w := range []int{4, 8, 16} {
			g, err := dfg.ByName(name, w)
			if err != nil {
				t.Fatal(err)
			}
			bs = append(bs, behaviour{g, w})
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
		bs = append(bs, behaviour{g, 4})
	}
	out := map[string]*etpn.Design{}
	for _, b := range bs {
		label := fmt.Sprintf("%s-%d", b.g.Name, b.width)
		s, err := sched.NewProblem(b.g).ASAP()
		if err != nil {
			t.Fatal(err)
		}
		life := alloc.Lifetimes(b.g, s)
		d, err := etpn.Build(b.g, s, alloc.Default(b.g, sched.ExactClass, life), life, "")
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		out[label+"/default"] = d
		for _, method := range core.Methods() {
			par := core.DefaultParams(b.width)
			par.LoopSignal = b.g.Loop
			par.Workers = 1
			res, err := core.RunCtx(context.Background(), method, b.g, par)
			if err != nil {
				t.Fatalf("%s/%s: %v", label, method, err)
			}
			out[label+"/"+method] = res.Design
		}
	}
	return out
}

// genMix synthesizes the GenMix set of the root package's
// BenchmarkSynthesizeGenMix, the in-process stand-in for the synth-unique
// workload: the paper's algorithm at one worker over 20 pinned generated
// behaviours of 12–19 operations, every fifth looped, at width 4, and both
// shipped VHDL sources at widths 4 and 8.
func genMix(tb testing.TB) {
	tb.Helper()
	var graphs []*dfg.Graph
	mixes, shapes := dfggen.Mixes(), dfggen.Shapes()
	for i := 0; i < 20; i++ {
		spec := dfggen.Spec{
			Seed: 0x5E11 + uint64(i), Ops: 12 + i%8,
			Mix: mixes[i%len(mixes)], Shape: shapes[(i/6)%len(shapes)],
			Fanout: 1 + (i/3)%4, Loop: i%5 == 0,
		}
		g, err := dfggen.Generate(spec, 4)
		if err != nil {
			tb.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	for _, f := range []string{"diffeq.vhd", "fir4.vhd"} {
		src, err := os.ReadFile(filepath.Join("..", "..", "testdata", f))
		if err != nil {
			tb.Fatal(err)
		}
		for _, w := range []int{4, 8} {
			g, err := hdl.Compile(string(src), w)
			if err != nil {
				tb.Fatalf("%s: %v", f, err)
			}
			graphs = append(graphs, g)
		}
	}
	for _, g := range graphs {
		par := core.DefaultParams(g.Width)
		par.LoopSignal = g.Loop
		par.Workers = 1
		if _, err := core.RunCtx(context.Background(), core.MethodOurs, g, par); err != nil {
			tb.Fatalf("%s: %v", g.Name, err)
		}
	}
}

func bits(e cost.Estimate) [5]uint64 {
	return [5]uint64{math.Float64bits(e.ModuleArea), math.Float64bits(e.RegArea),
		math.Float64bits(e.MuxArea), math.Float64bits(e.WireArea), math.Float64bits(e.Total)}
}

// TestFloorplanAndEstimateMatchReference compares the Estimator with the
// design-based reference on every sweep design: identical placements,
// bit-identical estimates and equal multiplexer counts.
func TestFloorplanAndEstimateMatchReference(t *testing.T) {
	for label, d := range sweepDesigns(t) {
		got, err := cost.KernelFloorplan(d)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		want := cost.RefFloorplan(d)
		if len(got) != len(d.Nodes) || len(want) != len(d.Nodes) {
			t.Fatalf("%s: placed %d and reference %d of %d nodes", label, len(got), len(want), len(d.Nodes))
		}
		for id, p := range got {
			if want[id] != p {
				t.Fatalf("%s: node %d at %v, reference %v", label, id, p, want[id])
			}
		}
		w := d.G.Width
		e, mux, err := cost.NewEstimator(nil, w).Estimate(d.G, d.Sched, d.Alloc, d.Life, d.LoopSignal)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if ref := cost.RefEstimateDesign(d, nil, w); bits(e) != bits(ref) {
			t.Fatalf("%s: estimate %+v, reference %+v", label, e, ref)
		}
		if ref := cost.RefMuxStats(d); mux != ref {
			t.Fatalf("%s: mux %+v, reference %+v", label, mux, ref)
		}
	}
}

// TestEstimatorMatchesBuild checks every state the synthesis flows cost
// on the sweep behaviours and the GenMix set against the design
// etpn.Build lays out: the Estimator fails exactly where Build plus
// Validate fails, with the same message, and otherwise its estimate is
// bit-identical to the reference on that design and its multiplexer count
// equal.
func TestEstimatorMatchesBuild(t *testing.T) {
	costed, failed := 0, 0
	restore := cost.Observe(func(c cost.Costed) {
		costed++
		d, err := etpn.Build(c.G, c.S, c.A, c.Life, c.Loop)
		if err == nil {
			err = d.Validate()
		}
		if (c.Err == nil) != (err == nil) || c.Err != nil && c.Err.Error() != err.Error() {
			t.Errorf("%s: Estimator error %v, Build %v", c.G.Name, c.Err, err)
			return
		}
		if err != nil {
			failed++
			return
		}
		if ref := cost.RefEstimateDesign(d, c.Lib, c.Width); bits(c.Est) != bits(ref) {
			t.Errorf("%s: estimate %+v, reference %+v", c.G.Name, c.Est, ref)
		}
		if ref := cost.RefMuxStats(d); c.Mux != ref {
			t.Errorf("%s: mux %+v, reference %+v", c.G.Name, c.Mux, ref)
		}
	})
	defer restore()
	sweepDesigns(t)
	genMix(t)
	if costed == 0 {
		t.Fatal("no state was costed")
	}
	t.Logf("%d states costed, %d rejected", costed, failed)
}

// TestEstimatorRejectsLikeBuild hands the Estimator two allocations Build
// rejects, neither of which the merger loop produces: an operand with no
// register (a result that also leaves through an output port, read by a
// later operation), and two values born in one step sharing a register.
func TestEstimatorRejectsLikeBuild(t *testing.T) {
	chain := dfg.New("chain", 8)
	a, b := chain.Input("a"), chain.Input("b")
	t1 := chain.Op(dfg.OpAdd, "t1", a, b)
	chain.MarkOutput(t1)
	chain.MarkOutput(chain.Op(dfg.OpAdd, "t2", t1, b))
	ex := dfg.Ex(8)
	ve, _ := ex.ValueByName("e")
	vf, _ := ex.ValueByName("f")
	for _, tc := range []struct {
		name string
		g    *dfg.Graph
		bind func(*alloc.Allocation) error
		want string
	}{
		{"operand without register", chain, func(al *alloc.Allocation) error {
			al.RegOf[t1] = -1
			return nil
		}, "etpn: operand t1 of N2 has no register"},
		{"equal births in one register", ex, func(al *alloc.Allocation) error {
			return al.MergeRegs(al.RegOf[ve], al.RegOf[vf])
		}, "etpn: register R4 written 2 times in step 1"},
	} {
		s, err := sched.NewProblem(tc.g).ASAP()
		if err != nil {
			t.Fatal(err)
		}
		life := alloc.Lifetimes(tc.g, s)
		al := alloc.Default(tc.g, sched.ExactClass, life)
		if err := tc.bind(al); err != nil {
			t.Fatal(err)
		}
		_, berr := etpn.Build(tc.g, s, al, life, "")
		_, _, kerr := cost.NewEstimator(nil, 8).Estimate(tc.g, s, al, life, "")
		if berr == nil || kerr == nil || berr.Error() != tc.want || kerr.Error() != tc.want {
			t.Errorf("%s: Estimator %v, Build %v, want %q", tc.name, kerr, berr, tc.want)
		}
	}
}
