package core

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dfg"
	"repro/internal/dfggen"
	"repro/internal/etpn"
	"repro/internal/hdl"
	"repro/internal/testability"
)

// genMixGraphs returns the GenMix set of the root package's
// BenchmarkSynthesizeGenMix, the in-process stand-in for the synth-unique
// workload: 20 pinned generated behaviours of 12–19 operations at width
// 4, every fifth looped, and both shipped VHDL sources at widths 4 and 8.
func genMixGraphs(t *testing.T) []*dfg.Graph {
	t.Helper()
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
			t.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	for _, f := range []string{"diffeq.vhd", "fir4.vhd"} {
		src, err := os.ReadFile(filepath.Join("..", "..", "testdata", f))
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{4, 8} {
			g, err := hdl.Compile(string(src), w)
			if err != nil {
				t.Fatalf("%s: %v", f, err)
			}
			graphs = append(graphs, g)
		}
	}
	return graphs
}

// TestAnalysisMatchesDesign checks every analysis a metrics-cache miss
// computes from the state's wiring — every flow on the kernel sweeps'
// behaviours, and ours on the GenMix set — against the design etpn.Build
// lays out for the state: CC, SC, CO and SO bit-identical to
// testability.Analyze on that design (which testability's differential
// tests compare with the design-based reference), and the mean register
// sequential depth bit-identical to the mean over the design's register
// nodes in node order. -short shrinks the sweep as sweepBehaviours does.
func TestAnalysisMatchesDesign(t *testing.T) {
	analyses := 0
	analyzed = func(st *state, e analysis) {
		analyses++
		d, err := etpn.Build(st.g, st.s, st.a, st.life, st.par.LoopSignal)
		if err != nil {
			t.Fatalf("%s: analysed a state Build rejects: %v", st.g.Name, err)
		}
		want := testability.Analyze(d, nil)
		for name, pair := range map[string][2][]float64{
			"CC": {e.m.CC, want.CC}, "SC": {e.m.SC, want.SC},
			"CO": {e.m.CO, want.CO}, "SO": {e.m.SO, want.SO},
		} {
			got, ref := pair[0], pair[1]
			if len(got) != len(ref) {
				t.Fatalf("%s: %s has %d nodes, the design %d", st.g.Name, name, len(got), len(ref))
			}
			for id := range got {
				if math.Float64bits(got[id]) != math.Float64bits(ref[id]) {
					t.Fatalf("%s: %s[%s] = %v, on the design %v", st.g.Name, name, d.Nodes[id].Name, got[id], ref[id])
				}
			}
		}
		sum, n := 0.0, 0
		for _, nd := range d.Nodes {
			if nd.Kind == etpn.KindRegister {
				sum += want.SeqDepth(nd.ID)
				n++
			}
		}
		depth := 0.0
		if n > 0 {
			depth = sum / float64(n)
		}
		if math.Float64bits(e.regDepth) != math.Float64bits(depth) {
			t.Fatalf("%s: mean register depth %v, on the design %v", st.g.Name, e.regDepth, depth)
		}
	}
	defer func() { analyzed = nil }()
	run := func(g *dfg.Graph, width int, method string) {
		par := DefaultParams(width)
		par.LoopSignal = g.Loop
		par.Workers = 1
		if _, err := RunCtx(context.Background(), method, g, par); err != nil {
			t.Fatalf("%s-%d/%s: %v", g.Name, width, method, err)
		}
	}
	for _, b := range sweepBehaviours(t) {
		for _, method := range Methods() {
			run(b.g, b.width, method)
		}
	}
	for _, g := range genMixGraphs(t) {
		run(g, g.Width, MethodOurs)
	}
	if analyses == 0 {
		t.Fatal("no state was analysed")
	}
	t.Logf("%d analyses", analyses)
}
