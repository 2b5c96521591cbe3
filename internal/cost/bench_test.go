package cost_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dfg"
)

// placement keeps the benchmarked result live.
var placement [][2]int

// BenchmarkFloorplan places the final EWF-8 design.
func BenchmarkFloorplan(b *testing.B) {
	res, err := core.SynthesizeCtx(context.Background(), dfg.EWF(8), core.DefaultParams(8))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		placement = cost.Floorplan(res.Design)
	}
}
