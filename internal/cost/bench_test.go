package cost_test

import (
	"testing"

	"repro/internal/alloc"
	"repro/internal/cost"
	"repro/internal/dfg"
	"repro/internal/sched"
)

// estimated keeps the benchmarked result live.
var estimated cost.Estimate

// BenchmarkFloorplan costs the intermediate designs the merger loop costs
// on the GenMix set (20–59 data-path nodes each), captured once through
// the Estimator's hook, with one reused Estimator per width, and reports
// ns per estimate.
func BenchmarkFloorplan(b *testing.B) {
	type state struct {
		g     *dfg.Graph
		s     sched.Schedule
		a     *alloc.Allocation
		life  alloc.Life
		loop  string
		width int
	}
	var states []state
	restore := cost.Observe(func(c cost.Costed) {
		if c.Err == nil {
			states = append(states, state{c.G, c.S.Clone(), c.A.Clone(), c.Life, c.Loop, c.Width})
		}
	})
	genMix(b)
	restore()
	ests := map[int]*cost.Estimator{}
	for _, st := range states {
		if ests[st.width] == nil {
			ests[st.width] = cost.NewEstimator(nil, st.width)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, st := range states {
			e, _, err := ests[st.width].Estimate(st.g, st.s, st.a, st.life, st.loop)
			if err != nil {
				b.Fatal(err)
			}
			estimated = e
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(states)), "ns/estimate")
	b.ReportMetric(float64(len(states)), "estimates/op")
}
