package cost

import (
	"testing"

	"repro/internal/alloc"
	"repro/internal/dfg"
	"repro/internal/etpn"
	"repro/internal/sched"
)

func build(t *testing.T, g *dfg.Graph, oneToOne bool) *etpn.Design {
	t.Helper()
	s, err := sched.NewProblem(g).ASAP()
	if err != nil {
		t.Fatal(err)
	}
	life := alloc.Lifetimes(g, s)
	var a *alloc.Allocation
	if oneToOne {
		a = alloc.Default(g, sched.ExactClass, life)
	} else {
		regOf, n := alloc.RegisterLeftEdge(g, life)
		a = alloc.BindModules(g, s, sched.ExactClass, regOf, n)
	}
	d, err := etpn.Build(g, s, a, life, "")
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestLibraryRelativeStructure(t *testing.T) {
	l := DefaultLibrary()
	for _, w := range []int{4, 8, 16} {
		mul := l.ModuleArea("*", w)
		add := l.ModuleArea("+", w)
		reg := l.RegisterArea(w)
		mux := l.MuxArea(w, 2)
		if !(mul > add && add > reg && reg > mux) {
			t.Errorf("width %d: relative areas broken: mul=%f add=%f reg=%f mux=%f", w, mul, add, reg, mux)
		}
	}
	// Multiplier quadratic, adder linear.
	if l.ModuleArea("*", 16)/l.ModuleArea("*", 4) != 16 {
		t.Errorf("multiplier not quadratic: %f", l.ModuleArea("*", 16)/l.ModuleArea("*", 4))
	}
	if l.ModuleArea("+", 16)/l.ModuleArea("+", 4) != 4 {
		t.Errorf("adder not linear")
	}
}

func TestMuxAreaBoundaries(t *testing.T) {
	l := DefaultLibrary()
	if l.MuxArea(8, 0) != 0 || l.MuxArea(8, 1) != 0 {
		t.Error("0/1-input mux must be free")
	}
	if !(l.MuxArea(8, 3) > l.MuxArea(8, 2)) {
		t.Error("mux area must grow with inputs")
	}
}

func TestUnknownClassFallsBack(t *testing.T) {
	l := DefaultLibrary()
	if l.ModuleArea("exotic", 8) <= 0 {
		t.Error("unknown class must get a fallback area")
	}
}

func TestFloorplanDeterministicAndInjective(t *testing.T) {
	g := dfg.Dct(8)
	d := build(t, g, false)
	p1 := Floorplan(d)
	p2 := Floorplan(d)
	if len(p1) != len(d.Nodes) {
		t.Fatalf("floorplan placed %d of %d nodes", len(p1), len(d.Nodes))
	}
	seen := map[[2]int]bool{}
	for id, pos := range p1 {
		if p2[id] != pos {
			t.Fatal("floorplan not deterministic")
		}
		if seen[pos] {
			t.Fatalf("two nodes share slot %v", pos)
		}
		seen[pos] = true
	}
}

func TestEstimateBreakdownConsistent(t *testing.T) {
	for _, name := range dfg.BenchmarkNames() {
		g, _ := dfg.ByName(name, 8)
		d := build(t, g, false)
		e := EstimateDesign(d, nil, 8)
		sum := e.ModuleArea + e.RegArea + e.MuxArea + e.WireArea
		if e.Total != sum {
			t.Errorf("%s: total %f != sum %f", name, e.Total, sum)
		}
		if e.Total <= 0 || e.ModuleArea <= 0 || e.RegArea <= 0 {
			t.Errorf("%s: non-positive areas: %+v", name, e)
		}
	}
}

func TestAreaGrowsWithWidth(t *testing.T) {
	g := dfg.Diffeq(8)
	d := build(t, g, false)
	e4 := EstimateDesign(d, nil, 4)
	e8 := EstimateDesign(d, nil, 8)
	e16 := EstimateDesign(d, nil, 16)
	if !(e4.Total < e8.Total && e8.Total < e16.Total) {
		t.Errorf("area not monotone in width: %f %f %f", e4.Total, e8.Total, e16.Total)
	}
	// Multiplier-heavy designs grow superlinearly.
	if e16.Total/e8.Total <= 2 {
		t.Errorf("16-bit/8-bit ratio %f should exceed 2 for a multiplier-bearing design", e16.Total/e8.Total)
	}
}

func TestSharingReducesModuleAreaAddsMux(t *testing.T) {
	g := dfg.Ex(8)
	one := build(t, g, true)     // 8 modules, 12 registers, no muxes
	shared := build(t, g, false) // left-edge: fewer modules/regs, muxes appear
	eOne := EstimateDesign(one, nil, 8)
	eShared := EstimateDesign(shared, nil, 8)
	if !(eShared.ModuleArea < eOne.ModuleArea) {
		t.Errorf("sharing should cut module area: %f vs %f", eShared.ModuleArea, eOne.ModuleArea)
	}
	if !(eShared.RegArea < eOne.RegArea) {
		t.Errorf("sharing should cut register area: %f vs %f", eShared.RegArea, eOne.RegArea)
	}
	if eOne.MuxArea != 0 {
		t.Errorf("1:1 allocation must have zero mux area, got %f", eOne.MuxArea)
	}
	if eShared.MuxArea <= 0 {
		t.Error("shared allocation must pay for muxes")
	}
	if !(eShared.Total < eOne.Total) {
		t.Errorf("area-optimizing share should win overall: %f vs %f", eShared.Total, eOne.Total)
	}
}

func TestEstimateString(t *testing.T) {
	g := dfg.Tseng(8)
	d := build(t, g, false)
	s := EstimateDesign(d, nil, 8).String()
	if len(s) == 0 {
		t.Error("empty estimate rendering")
	}
}

// The connectivity-driven floorplan must place connected components
// closer together than an adversarial (reversed-order) placement: total
// wire length under the heuristic should beat a naive diagonal spread.
func TestFloorplanBeatsNaivePlacement(t *testing.T) {
	g := dfg.EWF(8)
	d := build(t, g, false)
	pos := Floorplan(d)
	dist := func(p [][2]int) int {
		total := 0
		for _, a := range d.Arcs {
			pa, pb := p[a.From], p[a.To]
			total += abs(pa[0]-pb[0]) + abs(pa[1]-pb[1])
		}
		return total
	}
	heuristic := dist(pos)
	// Naive placement: nodes along a diagonal in id order.
	naive := make([][2]int, len(d.Nodes))
	for i := range d.Nodes {
		naive[i] = [2]int{i, i}
	}
	if heuristic >= dist(naive) {
		t.Errorf("floorplan wire length %d not better than naive %d", heuristic, dist(naive))
	}
}
