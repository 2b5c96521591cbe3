package hlts

// Equivalence suite for the memoized cost-evaluation engine: with the
// fingerprint cache enabled (the default), every synthesis flow must
// produce results bit-identical to a run with it disabled, on every
// benchmark and width, with the tie-policy
// exploration fanned out over several workers. `go test -race` runs this
// suite with real goroutine interleavings, so it doubles as the race
// stress test for the cache shared across tie-policy goroutines.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/dfggen"
	"repro/internal/hdl"
	"repro/internal/stats"
)

// cacheEquivFingerprint projects a core.Result onto its full comparable
// content: execution time, area, mux stats, the merger trace, the rendered
// schedule and allocation, and the raw testability fixpoint vectors.
func cacheEquivFingerprint(g *dfg.Graph, r *core.Result) string {
	return fmt.Sprintf("exec=%d area=%v mux=%+v loops=%d trace=%v\n%s\n%s\ncc=%v sc=%v co=%v so=%v",
		r.ExecTime, r.Area, r.Mux, r.Design.SelfLoops(), r.Trace,
		r.Design.Sched.String(g), r.Design.Alloc.String(g),
		r.Metrics.CC, r.Metrics.SC, r.Metrics.CO, r.Metrics.SO)
}

// loadVHDL compiles one of the shipped testdata sources at width.
func loadVHDL(tb testing.TB, file string, width int) *dfg.Graph {
	tb.Helper()
	src, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		tb.Fatal(err)
	}
	g, err := hdl.Compile(string(src), width)
	if err != nil {
		tb.Fatalf("%s: %v", file, err)
	}
	return g
}

// cacheEquivCases lists the behaviours of TestCacheEquivalence: Ex, Dct
// and Diffeq at 4, 8 and 16 bits, EWF, Paulin and Tseng at 4, the first 16
// specs of the generator sweep the kernel differential tests use (a third
// of them looped), and both shipped VHDL sources. -short keeps the paper's
// three at 4 bits, four generated specs and one VHDL source.
func cacheEquivCases(t *testing.T) []*dfg.Graph {
	short := testing.Short()
	var cases []*dfg.Graph
	named := func(name string, width int) {
		g, err := dfg.ByName(name, width)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, g)
	}
	widths := []int{4, 8, 16}
	if short {
		widths = []int{4}
	}
	for _, name := range equivBenches {
		for _, w := range widths {
			named(name, w)
		}
	}
	if !short {
		for _, name := range []string{dfg.BenchEWF, dfg.BenchPaulin, dfg.BenchTseng} {
			named(name, 4)
		}
	}
	specs := 16
	if short {
		specs = 4
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
		cases = append(cases, g)
	}
	files := []string{"diffeq.vhd", "fir4.vhd"}
	if short {
		files = files[:1]
	}
	for _, f := range files {
		cases = append(cases, loadVHDL(t, f, 4))
	}
	return cases
}

func TestCacheEquivalence(t *testing.T) {
	for _, g := range cacheEquivCases(t) {
		for _, method := range core.Methods() {
			t.Run(fmt.Sprintf("%s/w%d/%s", g.Name, g.Width, method), func(t *testing.T) {
				par := core.DefaultParams(g.Width)
				par.Workers = 4
				par.LoopSignal = g.Loop
				run := func(noCache bool) (string, *stats.Stats) {
					p := par
					p.NoCache = noCache
					p.Stats = stats.New()
					r, err := core.RunCtx(context.Background(), method, g, p)
					if err != nil {
						t.Fatal(err)
					}
					return cacheEquivFingerprint(g, r), p.Stats
				}
				want, _ := run(true)
				got, st := run(false)
				if got != want {
					t.Errorf("cached run diverges from uncached:\n--- cached ---\n%s\n--- uncached ---\n%s", got, want)
				}
				// The merger flows must actually exercise the cache, and
				// leave designs underived on some hits, or the equivalence
				// above is vacuous for the lazy path.
				if method == core.MethodOurs || method == core.MethodCAMAD {
					hits := st.Value("cache.build.hit")
					consults := hits + st.Value("cache.build.miss")
					if consults == 0 {
						t.Error("cache never consulted; equivalence check is vacuous")
					}
					if hits == 0 {
						t.Error("cache never hit; memoization is not engaging")
					}
					if designs := st.Value("core.designs"); designs >= consults {
						t.Errorf("%d designs derived for %d builds; no build hit went underived", designs, consults)
					}
				}
			})
		}
	}
}
