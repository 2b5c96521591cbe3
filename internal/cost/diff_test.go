package cost_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dfg"
	"repro/internal/dfggen"
	"repro/internal/etpn"
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

// TestFloorplanAndEstimateMatchReference compares the dense floorplan
// and the slice-counted estimate with the map-based reference on every
// sweep design: identical placements and bit-identical estimates.
func TestFloorplanAndEstimateMatchReference(t *testing.T) {
	bits := func(e cost.Estimate) [5]uint64 {
		return [5]uint64{math.Float64bits(e.ModuleArea), math.Float64bits(e.RegArea),
			math.Float64bits(e.MuxArea), math.Float64bits(e.WireArea), math.Float64bits(e.Total)}
	}
	for label, d := range sweepDesigns(t) {
		got, want := cost.Floorplan(d), cost.RefFloorplan(d)
		if len(got) != len(d.Nodes) || len(want) != len(d.Nodes) {
			t.Fatalf("%s: placed %d and reference %d of %d nodes", label, len(got), len(want), len(d.Nodes))
		}
		for id, p := range got {
			if want[id] != p {
				t.Fatalf("%s: node %d at %v, reference %v", label, id, p, want[id])
			}
		}
		w := d.G.Width
		if e, ref := cost.EstimateDesign(d, nil, w), cost.RefEstimateDesign(d, nil, w); bits(e) != bits(ref) {
			t.Fatalf("%s: estimate %+v, reference %+v", label, e, ref)
		}
	}
}
