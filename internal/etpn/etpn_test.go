package etpn

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/alloc"
	"repro/internal/dfg"
	"repro/internal/sched"
)

// buildDefault builds a design with ASAP schedule and left-edge binding.
func buildDefault(t *testing.T, g *dfg.Graph, loop string) *Design {
	t.Helper()
	s, err := sched.NewProblem(g).ASAP()
	if err != nil {
		t.Fatal(err)
	}
	life := alloc.Lifetimes(g, s)
	regOf, n := alloc.RegisterLeftEdge(g, life)
	a := alloc.BindModules(g, s, sched.ExactClass, regOf, n)
	d, err := Build(g, s, a, life, loop)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// buildOneToOne builds a design with the default (1:1) allocation.
func buildOneToOne(t *testing.T, g *dfg.Graph) *Design {
	t.Helper()
	s, err := sched.NewProblem(g).ASAP()
	if err != nil {
		t.Fatal(err)
	}
	life := alloc.Lifetimes(g, s)
	a := alloc.Default(g, sched.ExactClass, life)
	d, err := Build(g, s, a, life, "")
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestBuildAllBenchmarks(t *testing.T) {
	for _, name := range dfg.BenchmarkNames() {
		g, _ := dfg.ByName(name, 8)
		d := buildDefault(t, g, "")
		if err := d.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if len(d.Nodes) == 0 || len(d.Arcs) == 0 {
			t.Errorf("%s: empty data path", name)
		}
	}
}

func TestExecutionTimeStraightLine(t *testing.T) {
	g := dfg.Ex(8)
	d := buildDefault(t, g, "")
	if et := d.ExecutionTime(1); et != d.Sched.Len {
		t.Errorf("execution time %d, want schedule length %d", et, d.Sched.Len)
	}
}

func TestExecutionTimeLoop(t *testing.T) {
	g := dfg.Diffeq(8)
	d := buildDefault(t, g, "exit")
	// Two back-edge firings: three body passes.
	if et := d.ExecutionTime(2); et != 3*d.Sched.Len {
		t.Errorf("loop execution time %d, want %d", et, 3*d.Sched.Len)
	}
}

func TestLoopSignalMustExist(t *testing.T) {
	g := dfg.Ex(8)
	s, _ := sched.NewProblem(g).ASAP()
	life := alloc.Lifetimes(g, s)
	a := alloc.Default(g, sched.ExactClass, life)
	if _, err := Build(g, s, a, life, "nosuch"); err == nil {
		t.Fatal("expected unknown-signal error")
	}
}

func TestMuxStatsOneToOneIsZero(t *testing.T) {
	// With one module per op and one register per value, every destination
	// has a single source: no multiplexers.
	g := dfg.Ex(8)
	d := buildOneToOne(t, g)
	ms := d.MuxStats()
	if ms.Muxes != 0 || ms.Inputs != 0 {
		t.Errorf("1:1 allocation needs no muxes, got %+v", ms)
	}
}

func TestMuxStatsCAMADStyleEx(t *testing.T) {
	// Reproduce the paper's Table 1 CAMAD row structure: all four mults in
	// one module, all four +/- ops in another, one register per value.
	// The paper reports #Mux = 4 (both operand ports of both modules).
	g := dfg.Ex(8)
	p := sched.NewProblem(g)
	// Serialize ops per class so the binding is legal.
	var muls, alus []dfg.NodeID
	for _, n := range g.Nodes() {
		if n.Kind == dfg.OpMul {
			muls = append(muls, n.ID)
		} else {
			alus = append(alus, n.ID)
		}
		p.ModuleOf[n.ID] = map[bool]int{true: 0, false: 1}[n.Kind == dfg.OpMul]
	}
	s, err := p.List()
	if err != nil {
		t.Fatal(err)
	}
	life := alloc.Lifetimes(g, s)
	a := &alloc.Allocation{ModuleOf: make([]int, g.NumNodes()), RegOf: make([]int, g.NumValues())}
	a.Modules = []*alloc.ModuleGroup{
		{ID: 0, Class: "*", Ops: muls},
		{ID: 1, Class: "±", Ops: alus},
	}
	for _, op := range muls {
		a.ModuleOf[op] = 0
	}
	for _, op := range alus {
		a.ModuleOf[op] = 1
	}
	for v, l := range life {
		a.RegOf[v] = -1
		if l.Stored {
			a.RegOf[v] = len(a.Regs)
			a.Regs = append(a.Regs, &alloc.RegGroup{ID: len(a.Regs), Vals: []dfg.ValueID{dfg.ValueID(v)}})
		}
	}
	d, err := Build(g, s, a, life, "")
	if err != nil {
		t.Fatal(err)
	}
	ms := d.MuxStats()
	if ms.Muxes != 4 {
		t.Errorf("CAMAD-style Ex has %d muxes, paper reports 4", ms.Muxes)
	}
}

func TestSelfLoops(t *testing.T) {
	// Build a graph where a value's producer module also reads the register
	// holding the result of a previous op bound to the same module.
	g := dfg.New("loopy", 8)
	a := g.Input("a")
	b := g.Input("b")
	t1 := g.Op(dfg.OpAdd, "t1", a, b)
	t2 := g.Op(dfg.OpAdd, "t2", t1, b)
	g.MarkOutput(t2)
	p := sched.NewProblem(g)
	p.ModuleOf[0] = 0
	p.ModuleOf[1] = 0
	s, err := p.List()
	if err != nil {
		t.Fatal(err)
	}
	life := alloc.Lifetimes(g, s)
	al := alloc.Default(g, sched.ExactClass, life)
	if err := al.MergeModules(0, 1); err != nil {
		t.Fatal(err)
	}
	// Merge registers of t1 and t2: module reads R(t1) and writes R(t1).
	r1, r2 := al.RegOf[t1], al.RegOf[t2]
	if err := al.MergeRegs(r1, r2); err != nil {
		t.Fatal(err)
	}
	d, err := Build(g, s, al, life, "")
	if err != nil {
		t.Fatal(err)
	}
	if d.SelfLoops() != 1 {
		t.Errorf("SelfLoops = %d, want 1", d.SelfLoops())
	}
}

func TestSimulateMatchesInterpreter(t *testing.T) {
	for _, name := range dfg.BenchmarkNames() {
		g, _ := dfg.ByName(name, 16)
		d := buildDefault(t, g, "")
		rng := rand.New(rand.NewSource(7))
		for trial := 0; trial < 25; trial++ {
			in := map[string]uint64{}
			for _, v := range g.Inputs() {
				in[g.Value(v).Name] = rng.Uint64()
			}
			want, err := g.Interpret(16, in)
			if err != nil {
				t.Fatal(err)
			}
			got, err := d.Simulate(16, in)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for k, w := range want {
				if got[k] != w {
					t.Fatalf("%s trial %d: output %s = %d, want %d", name, trial, k, got[k], w)
				}
			}
		}
	}
}

func TestSimulateOneToOneMatchesInterpreter(t *testing.T) {
	prop := func(a, b, c, dd uint16) bool {
		g := dfg.Ex(8)
		d := buildOneToOne(t, g)
		in := map[string]uint64{"a": uint64(a), "b": uint64(b), "c": uint64(c), "d": uint64(dd)}
		want, err1 := g.Interpret(8, in)
		got, err2 := d.Simulate(8, in)
		if err1 != nil || err2 != nil {
			return false
		}
		for k, w := range want {
			if got[k] != w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSimulateMissingInput(t *testing.T) {
	g := dfg.Ex(8)
	d := buildDefault(t, g, "")
	if _, err := d.Simulate(8, map[string]uint64{"a": 1}); err == nil {
		t.Fatal("expected missing-input error")
	}
}

func TestSimulateDetectsClobbering(t *testing.T) {
	// An illegal register merge (overlapping lifetimes) must be caught by
	// the simulator as a clobbered read.
	g := dfg.Ex(8)
	s, _ := sched.NewProblem(g).ASAP()
	life := alloc.Lifetimes(g, s)
	al := alloc.Default(g, sched.ExactClass, life)
	vf, _ := g.ValueByName("f") // f = (1,3]: read by N25@2 and N28@3
	vv, _ := g.ValueByName("v") // v = (2,3]: overlaps f but born later
	if err := al.MergeRegs(al.RegOf[vf], al.RegOf[vv]); err != nil {
		t.Fatal(err)
	}
	d, err := Build(g, s, al, life, "")
	if err != nil {
		t.Fatal(err)
	}
	in := map[string]uint64{"a": 3, "b": 5, "c": 7, "d": 11}
	if _, err := d.Simulate(8, in); err == nil {
		t.Fatal("expected clobbered-read error")
	}
}

func TestValidateRejectsDoubleWrite(t *testing.T) {
	g := dfg.Ex(8)
	s, _ := sched.NewProblem(g).ASAP()
	life := alloc.Lifetimes(g, s)
	al := alloc.Default(g, sched.ExactClass, life)
	// e (born step 1) and f (born step 1) in one register: two writes in
	// step 1.
	ve, _ := g.ValueByName("e")
	vf, _ := g.ValueByName("f")
	if err := al.MergeRegs(al.RegOf[ve], al.RegOf[vf]); err != nil {
		t.Fatal(err)
	}
	if _, err := Build(g, s, al, life, ""); err == nil {
		t.Fatal("expected double-write rejection")
	}
}

func TestArcsIntoFrom(t *testing.T) {
	g := dfg.Tseng(8)
	d := buildDefault(t, g, "")
	for _, n := range d.Nodes {
		for _, a := range d.ArcsInto(n.ID) {
			if a.To != n.ID {
				t.Fatalf("ArcsInto returned arc to %d for node %d", a.To, n.ID)
			}
		}
		for _, a := range d.ArcsFrom(n.ID) {
			if a.From != n.ID {
				t.Fatalf("ArcsFrom returned arc from %d for node %d", a.From, n.ID)
			}
		}
	}
}

func TestStringRendering(t *testing.T) {
	g := dfg.Diffeq(8)
	d := buildDefault(t, g, "exit")
	s := d.String()
	for _, want := range []string{"ETPN diffeq", "reg", "mod", "->"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering missing %q", want)
		}
	}
}
