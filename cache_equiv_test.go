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
	"testing"

	"repro/internal/core"
	"repro/internal/dfg"
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

func TestCacheEquivalence(t *testing.T) {
	widths := []int{4, 8, 16}
	if testing.Short() {
		widths = []int{4}
	}
	for _, bench := range equivBenches {
		for _, width := range widths {
			for _, method := range core.Methods() {
				t.Run(fmt.Sprintf("%s/w%d/%s", bench, width, method), func(t *testing.T) {
					g, err := dfg.ByName(bench, width)
					if err != nil {
						t.Fatal(err)
					}
					par := core.DefaultParams(width)
					par.Workers = 4
					if bench == dfg.BenchDiffeq {
						par.LoopSignal = "exit"
					}
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
					// The merger flows must actually exercise the cache, or
					// the equivalence above is vacuous.
					if method == core.MethodOurs || method == core.MethodCAMAD {
						consults := st.Value("cache.build.hit") + st.Value("cache.build.miss")
						if consults == 0 {
							t.Error("cache never consulted; equivalence check is vacuous")
						}
						if st.Value("cache.build.hit") == 0 {
							t.Error("cache never hit; memoization is not engaging")
						}
					}
				})
			}
		}
	}
}
