package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/dfg"
	"repro/internal/dfggen"
	"repro/internal/stats"
)

// resultBytes renders everything a Result carries that reaches an output.
func resultBytes(g *dfg.Graph, r *Result) string {
	return fmt.Sprintf("%s exec=%d area=%v mux=%+v loops=%d status=%s/%s trace=%q\n%s\n%s\ncc=%v sc=%v co=%v so=%v",
		r.Method, r.ExecTime, r.Area, r.Mux, r.Design.SelfLoops(), r.Status, r.Exhausted, r.Trace,
		r.Design.Sched.String(g), r.Design.Alloc.String(g),
		r.Metrics.CC, r.Metrics.SC, r.Metrics.CO, r.Metrics.SO)
}

// TestMergeOrderCheckByteIdentical runs every synthesis flow with the
// merge-order check and the compiled base on, and again with
// recompileOrders set (no order rejected before cloning, each listed on
// its clone's own compiled problem), on every named benchmark at 4, 8 and
// 16 bits and the 64 generator specs of the kernel sweeps, and requires
// byte-identical results. -short keeps width 4 and the first 16 specs.
func TestMergeOrderCheckByteIdentical(t *testing.T) {
	type behaviour struct {
		g     *dfg.Graph
		width int
	}
	widths, specs := []int{4, 8, 16}, 64
	if testing.Short() {
		widths, specs = []int{4}, 16
	}
	var bs []behaviour
	for _, name := range dfg.BenchmarkNames() {
		for _, w := range widths {
			g, err := dfg.ByName(name, w)
			if err != nil {
				t.Fatal(err)
			}
			bs = append(bs, behaviour{g, w})
		}
	}
	mixes, shapes := dfggen.Mixes(), dfggen.Shapes()
	for i := 0; i < specs; i++ {
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
	run := func(b behaviour, method string, recompile bool) (string, *stats.Stats) {
		t.Helper()
		recompileOrders = recompile
		defer func() { recompileOrders = false }()
		par := DefaultParams(b.width)
		par.LoopSignal = b.g.Loop
		par.Stats = stats.New()
		r, err := RunCtx(context.Background(), method, b.g, par)
		if err != nil {
			t.Fatalf("%s-%d/%s (recompile %v): %v", b.g.Name, b.width, method, recompile, err)
		}
		return resultBytes(b.g, r), par.Stats
	}
	var rejected int64
	for _, b := range bs {
		for _, method := range Methods() {
			got, st := run(b, method, false)
			want, ref := run(b, method, true)
			if got != want {
				t.Fatalf("%s-%d/%s: result with the merge-order check differs from recompiling every order\n got: %s\nwant: %s",
					b.g.Name, b.width, method, got, want)
			}
			if n := ref.Value("core.rejected"); n != 0 {
				t.Fatalf("%s-%d/%s: %d orders rejected with the check off", b.g.Name, b.width, method, n)
			}
			rejected += st.Value("core.rejected")
		}
	}
	if rejected == 0 {
		t.Fatal("no merge order was rejected before cloning; the sweep tests nothing")
	}
	t.Logf("%d behaviours, %d merge orders rejected before cloning", len(bs), rejected)
}
