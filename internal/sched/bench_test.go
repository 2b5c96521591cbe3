package sched_test

import (
	"context"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/sched"
)

// BenchmarkList list-schedules the constraints the final EWF-8 design
// realizes: its module binding, each module's operations chained in step
// order, and each register's values serialized in lifetime order (every
// reader of a value no later than the next value's producer, producers
// strictly ordered), within the final schedule length.
func BenchmarkList(b *testing.B) {
	res, err := core.SynthesizeCtx(context.Background(), dfg.EWF(8), core.DefaultParams(8))
	if err != nil {
		b.Fatal(err)
	}
	d := res.Design
	p := sched.NewProblem(d.G)
	p.MaxLen = d.Sched.Len
	for _, m := range d.Alloc.Modules {
		for _, op := range m.Ops {
			p.ModuleOf[op] = m.ID
		}
		p.Extra = append(p.Extra, sched.ChainArcs(sched.OrderByStep(m.Ops, d.Sched))...)
	}
	for _, r := range d.Alloc.Regs {
		vals := slices.Clone(r.Vals)
		slices.SortFunc(vals, func(x, y dfg.ValueID) int { return d.Life[x].Birth - d.Life[y].Birth })
		for i := 0; i+1 < len(vals); i++ {
			v, next := d.G.Value(vals[i]), d.G.Value(vals[i+1])
			if next.Def == dfg.NoNode {
				continue
			}
			if v.Def != dfg.NoNode {
				p.Extra = append(p.Extra, [2]dfg.NodeID{v.Def, next.Def})
			}
			for _, u := range v.Uses {
				if u != next.Def {
					p.ExtraWeak = append(p.ExtraWeak, [2]dfg.NodeID{u, next.Def})
				}
			}
		}
	}
	if _, err := p.List(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.List(); err != nil {
			b.Fatal(err)
		}
	}
}
