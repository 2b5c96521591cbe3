package sched

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dfg"
	"repro/internal/dfggen"
)

// diffGraphs returns the behaviours the differential tests sweep: every
// named benchmark at widths 4, 8 and 16, and the 64 seeded generator specs
// of the generated-suite sweep at width 4.
func diffGraphs(t *testing.T) map[string]*dfg.Graph {
	t.Helper()
	out := map[string]*dfg.Graph{}
	for _, name := range dfg.BenchmarkNames() {
		for _, w := range []int{4, 8, 16} {
			g, err := dfg.ByName(name, w)
			if err != nil {
				t.Fatal(err)
			}
			out[fmt.Sprintf("%s-%d", name, w)] = g
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
		out[spec.Name()] = g
	}
	return out
}

// randomProblem draws a seeded constraint set over g: strict and weak arcs
// that mostly follow a topological order (so most problems are solvable),
// with repeated arcs, pairs joined by both a strict and a weak arc, and —
// in some sets — self-arcs and backward arcs that close cycles; a random
// partial module binding with sparse module ids; and a latency bound that
// may be too tight.
func randomProblem(g *dfg.Graph, rng *rand.Rand) *Problem {
	p := NewProblem(g)
	nn := g.NumNodes()
	if nn == 0 {
		return p
	}
	order, err := p.refTopo()
	if err != nil {
		panic(err)
	}
	pos := make([]int, nn)
	for i, n := range order {
		pos[n] = i
	}
	cyclic := rng.Intn(5) == 0
	arc := func() [2]dfg.NodeID {
		a, b := dfg.NodeID(rng.Intn(nn)), dfg.NodeID(rng.Intn(nn))
		if !cyclic && pos[a] > pos[b] {
			a, b = b, a
		}
		if a == b && !cyclic && b != order[nn-1] {
			b = order[pos[a]+1]
		}
		return [2]dfg.NodeID{a, b}
	}
	for i := rng.Intn(nn + 1); i > 0; i-- {
		if len(p.Extra) > 0 && rng.Intn(5) == 0 {
			p.Extra = append(p.Extra, p.Extra[rng.Intn(len(p.Extra))])
			continue
		}
		p.Extra = append(p.Extra, arc())
	}
	for i := rng.Intn(nn + 1); i > 0; i-- {
		switch {
		case len(p.Extra) > 0 && rng.Intn(3) == 0:
			p.ExtraWeak = append(p.ExtraWeak, p.Extra[rng.Intn(len(p.Extra))])
		case len(p.ExtraWeak) > 0 && rng.Intn(5) == 0:
			p.ExtraWeak = append(p.ExtraWeak, p.ExtraWeak[rng.Intn(len(p.ExtraWeak))])
		default:
			p.ExtraWeak = append(p.ExtraWeak, arc())
		}
	}
	mods := 1 + rng.Intn(4)
	for n := 0; n < nn; n++ {
		if rng.Intn(3) > 0 {
			p.ModuleOf[dfg.NodeID(n)] = 7 * rng.Intn(mods)
		}
	}
	if asap, err := p.refASAP(); err == nil && rng.Intn(4) > 0 {
		p.MaxLen = asap.Len + rng.Intn(nn/2+2) - 1
	}
	return p
}

func sameErr(got, want error) bool {
	if got == nil || want == nil {
		return got == nil && want == nil
	}
	return got.Error() == want.Error()
}

// sameSchedule reports the first difference between a dense schedule and
// a reference schedule, or "".
func sameSchedule(nn int, got Schedule, gotErr error, want refSchedule, wantErr error) string {
	if !sameErr(gotErr, wantErr) {
		return fmt.Sprintf("error %v, reference %v", gotErr, wantErr)
	}
	if wantErr != nil {
		return ""
	}
	if got.Len != want.Len || len(got.Step) != nn || len(want.Step) != nn {
		return fmt.Sprintf("len %d/%d steps, reference len %d/%d steps", got.Len, len(got.Step), want.Len, len(want.Step))
	}
	for n := 0; n < nn; n++ {
		if got.Step[n] != want.Step[dfg.NodeID(n)] {
			return fmt.Sprintf("node %d at %d, reference %d", n, got.Step[n], want.Step[dfg.NodeID(n)])
		}
	}
	return ""
}

// TestKernelsMatchReference runs the compiled topo, ASAP, ALAP, List and
// frame computation against the map-based reference on every sweep graph,
// unconstrained and under seeded random constraint sets, requiring
// identical orders, schedules and error strings.
func TestKernelsMatchReference(t *testing.T) {
	sets := 24
	if testing.Short() {
		sets = 6
	}
	solved, failed := 0, 0
	for name, g := range diffGraphs(t) {
		nn := g.NumNodes()
		for k := 0; k <= sets; k++ {
			rng := rand.New(rand.NewSource(int64(k)*7919 + int64(nn)))
			p := NewProblem(g)
			if k > 0 {
				p = randomProblem(g, rng)
			}
			label := fmt.Sprintf("%s set %d", name, k)
			c := p.compile()
			order, err := c.topo()
			refOrder, refErr := p.refTopo()
			if !sameErr(err, refErr) {
				t.Fatalf("%s: topo error %v, reference %v", label, err, refErr)
			}
			if len(order) != len(refOrder) {
				t.Fatalf("%s: topo order %v, reference %v", label, order, refOrder)
			}
			for i := range order {
				if dfg.NodeID(order[i]) != refOrder[i] {
					t.Fatalf("%s: topo order %v, reference %v", label, order, refOrder)
				}
			}

			asap, err := p.ASAP()
			refASAP, refErr := p.refASAP()
			if d := sameSchedule(nn, asap, err, refASAP, refErr); d != "" {
				t.Fatalf("%s: ASAP %s", label, d)
			}
			for _, lat := range []int{asap.Len - 1, asap.Len, asap.Len + 2} {
				alap, err := alapSchedule(p, lat)
				refALAP, refErr := p.refALAP(lat)
				if d := sameSchedule(nn, alap, err, refALAP, refErr); d != "" {
					t.Fatalf("%s: ALAP(%d) %s", label, lat, d)
				}
			}

			s, err := p.List()
			refS, refErr := p.refList()
			if d := sameSchedule(nn, s, err, refS, refErr); d != "" {
				t.Fatalf("%s: List %s", label, d)
			}
			if err == nil {
				solved++
				if err := p.Verify(s); err != nil {
					t.Fatalf("%s: List schedule fails Verify: %v", label, err)
				}
			} else {
				failed++
			}

			if order == nil {
				continue
			}
			latency := asap.Len + rng.Intn(3)
			fixed := make([]int, nn)
			refFixed := map[dfg.NodeID]int{}
			for i := rng.Intn(4); i > 0 && nn > 0; i-- {
				n := rng.Intn(nn)
				fixed[n] = 1 + rng.Intn(latency)
				refFixed[dfg.NodeID(n)] = fixed[n]
			}
			fa, fl, err := p.framesWithFixed(c, order, latency, fixed)
			ra, rl, refErr := p.refFramesWithFixed(latency, refFixed)
			if !sameErr(err, refErr) {
				t.Fatalf("%s: frames error %v, reference %v", label, err, refErr)
			}
			for n := 0; err == nil && n < nn; n++ {
				if fa[n] != ra[dfg.NodeID(n)] || fl[n] != rl[dfg.NodeID(n)] {
					t.Fatalf("%s: node %d frame [%d,%d], reference [%d,%d]", label, n, fa[n], fl[n], ra[dfg.NodeID(n)], rl[dfg.NodeID(n)])
				}
			}
		}
	}
	t.Logf("List solved %d problems and rejected %d", solved, failed)
	// The random sets must exercise both outcomes.
	if solved == 0 || failed == 0 {
		t.Fatalf("sweep solved %d and rejected %d problems; want both > 0", solved, failed)
	}
}

// TestVerifyNamesModuleClashDeterministically pins the bug fixed by
// walking node ids in order: the same clashing schedule must always be
// reported with the same message.
func TestVerifyNamesModuleClashDeterministically(t *testing.T) {
	g := dfg.Ex(8)
	p := NewProblem(g)
	s := mustASAP(t, p)
	for _, n := range g.Nodes() {
		if s.Step[n.ID] == 1 {
			p.ModuleOf[n.ID] = 0
		}
	}
	first := p.Verify(s)
	if first == nil {
		t.Fatal("expected a module clash")
	}
	for i := 0; i < 50; i++ {
		if err := p.Verify(s); err == nil || err.Error() != first.Error() {
			t.Fatalf("Verify said %q, then %q", first, err)
		}
	}
}
