package testability

import (
	"strings"
	"testing"

	"repro/internal/alloc"
	"repro/internal/dfg"
	"repro/internal/etpn"
	"repro/internal/sched"
)

func build(t *testing.T, g *dfg.Graph) *etpn.Design {
	t.Helper()
	s, err := sched.NewProblem(g).ASAP()
	if err != nil {
		t.Fatal(err)
	}
	life := alloc.Lifetimes(g, s)
	regOf, n := alloc.RegisterLeftEdge(g, life)
	a := alloc.BindModules(g, s, sched.ExactClass, regOf, n)
	d, err := etpn.Build(g, s, a, life, "")
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func analyze(t *testing.T, g *dfg.Graph) (*etpn.Design, *Metrics) {
	t.Helper()
	d := build(t, g)
	return d, Analyze(d, nil)
}

// build1to1 builds a design with the default one-node-per-op/value
// allocation, which exposes path depth (left-edge reuses registers along
// chains and flattens it).
func build1to1(t *testing.T, g *dfg.Graph) (*etpn.Design, *Metrics) {
	t.Helper()
	s, err := sched.NewProblem(g).ASAP()
	if err != nil {
		t.Fatal(err)
	}
	life := alloc.Lifetimes(g, s)
	a := alloc.Default(g, sched.ExactClass, life)
	d, err := etpn.Build(g, s, a, life, "")
	if err != nil {
		t.Fatal(err)
	}
	return d, Analyze(d, nil)
}

func TestRangesAllBenchmarks(t *testing.T) {
	for _, name := range dfg.BenchmarkNames() {
		g, _ := dfg.ByName(name, 8)
		d, m := analyze(t, g)
		for _, nd := range d.Nodes {
			if m.CC[nd.ID] < 0 || m.CC[nd.ID] > 1 {
				t.Errorf("%s node %s: CC = %f out of range", name, nd.Name, m.CC[nd.ID])
			}
			if m.CO[nd.ID] < 0 || m.CO[nd.ID] > 1 {
				t.Errorf("%s node %s: CO = %f out of range", name, nd.Name, m.CO[nd.ID])
			}
			if m.SC[nd.ID] < 0 || m.SO[nd.ID] < 0 {
				t.Errorf("%s node %s: negative sequential measure", name, nd.Name)
			}
		}
	}
}

func TestPrimaryPortsAnchors(t *testing.T) {
	g := dfg.Ex(8)
	d, m := analyze(t, g)
	for _, nd := range d.Nodes {
		switch nd.Kind {
		case etpn.KindInPort:
			if m.CC[nd.ID] != 1 || m.SC[nd.ID] != 0 {
				t.Errorf("in-port %s: (CC,SC)=(%f,%f), want (1,0)", nd.Name, m.CC[nd.ID], m.SC[nd.ID])
			}
		case etpn.KindOutPort:
			if m.CO[nd.ID] != 1 || m.SO[nd.ID] != 0 {
				t.Errorf("out-port %s: (CO,SO)=(%f,%f), want (1,0)", nd.Name, m.CO[nd.ID], m.SO[nd.ID])
			}
		}
	}
}

func TestEveryNodeReachable(t *testing.T) {
	// In a 1:1 allocation of a connected DFG, every register and module is
	// both controllable and observable.
	for _, name := range dfg.BenchmarkNames() {
		g, _ := dfg.ByName(name, 8)
		d, m := analyze(t, g)
		for _, nd := range d.Nodes {
			if nd.Kind != etpn.KindRegister && nd.Kind != etpn.KindModule {
				continue
			}
			if m.CC[nd.ID] <= 0 {
				t.Errorf("%s node %s uncontrollable (CC=0)", name, nd.Name)
			}
			if m.CO[nd.ID] <= 0 {
				t.Errorf("%s node %s unobservable (CO=0)", name, nd.Name)
			}
		}
	}
}

func TestSequentialDepthGrowsAlongChain(t *testing.T) {
	// A linear chain a -> +1 -> +1 -> +1: SC increases with distance from
	// the input, SO increases with distance from the output.
	g := dfg.New("chain", 8)
	a := g.Input("a")
	b := g.Input("b")
	t1 := g.Op(dfg.OpAdd, "t1", a, b)
	t2 := g.Op(dfg.OpAdd, "t2", t1, b)
	t3 := g.Op(dfg.OpAdd, "t3", t2, b)
	g.MarkOutput(t3)
	d, m := build1to1(t, g)

	regSC := func(v dfg.ValueID) float64 { return m.SC[d.RegNode(d.Alloc.RegOf[v])] }
	regSO := func(v dfg.ValueID) float64 { return m.SO[d.RegNode(d.Alloc.RegOf[v])] }
	if !(regSC(t1) < regSC(t2) && regSC(t2) < regSC(t3)) {
		t.Errorf("SC not increasing along chain: %f %f %f", regSC(t1), regSC(t2), regSC(t3))
	}
	if !(regSO(t3) < regSO(t2) && regSO(t2) < regSO(t1)) {
		t.Errorf("SO not decreasing toward output: %f %f %f", regSO(t1), regSO(t2), regSO(t3))
	}
	if !(m.Ctrl(d.RegNode(d.Alloc.RegOf[t1])) > m.Ctrl(d.RegNode(d.Alloc.RegOf[t3]))) {
		t.Error("controllability should degrade away from inputs")
	}
}

func TestMultiplierHarderThanAdder(t *testing.T) {
	// Two parallel paths of equal shape, one through +, one through *:
	// the multiplier module must be harder to observe through.
	g := dfg.New("mulvadd", 8)
	a := g.Input("a")
	b := g.Input("b")
	s := g.Op(dfg.OpAdd, "s", a, b)
	p := g.Op(dfg.OpMul, "p", a, b)
	g.MarkOutput(s)
	g.MarkOutput(p)
	d, m := analyze(t, g)
	var addMod, mulMod int
	for _, nd := range d.Nodes {
		if nd.Kind == etpn.KindModule {
			if nd.Class == "+" {
				addMod = nd.ID
			}
			if nd.Class == "*" {
				mulMod = nd.ID
			}
		}
	}
	if !(m.CC[mulMod] < m.CC[addMod]) {
		t.Errorf("mul CC %f should be below add CC %f", m.CC[mulMod], m.CC[addMod])
	}
	// A class with no table entry falls back to the default factors.
	if f := factorsOf("weird"); f != (factors{0.85, 0.75}) {
		t.Errorf("fallback factors = %+v, want {0.85 0.75}", f)
	}
}

func TestBalanceScore(t *testing.T) {
	// Chain register near input: good ctrl, worse obs. Near output: the
	// reverse. Their balance score must be positive (good merge), while a
	// node with itself is zero.
	g := dfg.New("chain", 8)
	a := g.Input("a")
	b := g.Input("b")
	t1 := g.Op(dfg.OpAdd, "t1", a, b)
	t2 := g.Op(dfg.OpAdd, "t2", t1, b)
	t3 := g.Op(dfg.OpAdd, "t3", t2, b)
	t4 := g.Op(dfg.OpAdd, "t4", t3, b)
	g.MarkOutput(t4)
	d, m := build1to1(t, g)
	near := d.RegNode(d.Alloc.RegOf[t1]) // controllable, far from output
	far := d.RegNode(d.Alloc.RegOf[t4])  // observable, far from input
	if m.BalanceScore(near, far) <= 0 {
		t.Errorf("balance score of complementary nodes = %f, want > 0", m.BalanceScore(near, far))
	}
	// A complementary pair must outscore pairing two equally-placed nodes:
	// the balance term vanishes for the latter.
	if m.BalanceScore(near, far) <= m.BalanceScore(near, near) {
		t.Errorf("complementary pair %f should beat self pair %f",
			m.BalanceScore(near, far), m.BalanceScore(near, near))
	}
}

func TestCyclicDataPathConverges(t *testing.T) {
	// Merge registers/modules to create a structural cycle and check the
	// fixpoint still terminates with sane values.
	g := dfg.New("cyc", 8)
	a := g.Input("a")
	b := g.Input("b")
	t1 := g.Op(dfg.OpAdd, "t1", a, b)
	t2 := g.Op(dfg.OpAdd, "t2", t1, b)
	t3 := g.Op(dfg.OpAdd, "t3", t2, t1)
	g.MarkOutput(t3)
	p := sched.NewProblem(g)
	p.ModuleOf[0], p.ModuleOf[1], p.ModuleOf[2] = 0, 0, 0
	s, err := p.List()
	if err != nil {
		t.Fatal(err)
	}
	life := alloc.Lifetimes(g, s)
	al := alloc.Default(g, sched.ExactClass, life)
	if err := al.MergeModules(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := al.MergeModules(al.ModuleOf[0], al.ModuleOf[2]); err != nil {
		t.Fatal(err)
	}
	d, err := etpn.Build(g, s, al, life, "")
	if err != nil {
		t.Fatal(err)
	}
	m := Analyze(d, nil)
	for _, nd := range d.Nodes {
		if m.CC[nd.ID] < 0 || m.CC[nd.ID] > 1 || m.CO[nd.ID] < 0 || m.CO[nd.ID] > 1 {
			t.Errorf("node %s out of range after cyclic analysis", nd.Name)
		}
	}
	// The shared module must still be controllable and observable.
	mod := d.ModNode(0)
	if m.CC[mod] == 0 || m.CO[mod] == 0 {
		t.Error("shared module lost testability in cyclic data path")
	}
}

func TestMeanTestabilityPositive(t *testing.T) {
	g := dfg.Diffeq(8)
	d, m := analyze(t, g)
	mt := MeanTestability(d, m)
	if mt <= 0 || mt > 1 {
		t.Errorf("mean testability = %f out of (0,1]", mt)
	}
}

func TestValueCtrl(t *testing.T) {
	g := dfg.Ex(8)
	d, m := analyze(t, g)
	va, _ := g.ValueByName("a")
	if ValueCtrl(d, m, va) <= 0 {
		t.Error("input variable must have positive controllability")
	}
}

func TestSummaryRendering(t *testing.T) {
	g := dfg.Tseng(8)
	d, m := analyze(t, g)
	s := m.Summary(d)
	if !strings.Contains(s, "CC") || !strings.Contains(s, "R0") {
		t.Errorf("summary incomplete:\n%s", s)
	}
}

func TestRegisterCrossingAddsDepth(t *testing.T) {
	g := dfg.New("two", 8)
	a := g.Input("a")
	b := g.Input("b")
	t1 := g.Op(dfg.OpAdd, "t1", a, b)
	g.MarkOutput(t1)
	d, m := build1to1(t, g)
	// Input register: one crossing from the in port.
	ra := d.RegNode(d.Alloc.RegOf[a])
	if m.SC[ra] != 1 {
		t.Errorf("input register SC = %f, want 1", m.SC[ra])
	}
	rt := d.RegNode(d.Alloc.RegOf[t1])
	if m.SC[rt] != 2 {
		t.Errorf("result register SC = %f, want 2 (input reg + result reg)", m.SC[rt])
	}
}
