package rtl

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/alloc"
	"repro/internal/dfg"
	"repro/internal/etpn"
	"repro/internal/sched"
)

func buildLeftEdge(t *testing.T, g *dfg.Graph) *etpn.Design {
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

func TestGenerateAllBenchmarks(t *testing.T) {
	for _, name := range dfg.BenchmarkNames() {
		g, _ := dfg.ByName(name, 8)
		d := buildLeftEdge(t, g)
		for _, mode := range []Mode{NormalMode, TestMode} {
			n, err := Generate(d, 8, mode)
			if err != nil {
				t.Fatalf("%s mode %d: %v", name, mode, err)
			}
			if err := n.C.Validate(); err != nil {
				t.Errorf("%s: %v", name, err)
			}
			if n.C.NumGates() == 0 || len(n.C.DFFs) == 0 {
				t.Errorf("%s: degenerate netlist %s", name, n.C.Stats())
			}
		}
	}
}

func TestTestModeExposesControlPIs(t *testing.T) {
	g := dfg.Ex(8)
	d := buildLeftEdge(t, g)
	tn, err := Generate(d, 8, TestMode)
	if err != nil {
		t.Fatal(err)
	}
	nn, err := Generate(d, 8, NormalMode)
	if err != nil {
		t.Fatal(err)
	}
	if len(tn.Ctrl) == 0 {
		t.Fatal("no control signals recorded")
	}
	if len(tn.Ctrl) != len(nn.Ctrl) {
		t.Errorf("modes disagree on control count: %d vs %d", len(tn.Ctrl), len(nn.Ctrl))
	}
	for _, cs := range tn.Ctrl {
		if cs.PI < 0 {
			t.Errorf("test-mode control %s has no PI", cs.Name)
		}
		if len(cs.ActiveSteps) == 0 {
			t.Errorf("control %s has no active steps", cs.Name)
		}
	}
	for _, cs := range nn.Ctrl {
		if cs.PI >= 0 {
			t.Errorf("normal-mode control %s should not be a PI", cs.Name)
		}
	}
	// Test mode has strictly more PIs (controls), same data width.
	if len(tn.C.Inputs) <= len(nn.C.Inputs) {
		t.Errorf("test mode PIs %d, normal mode %d", len(tn.C.Inputs), len(nn.C.Inputs))
	}
	// Normal mode has the FSM flops on top of the data registers.
	if len(nn.C.DFFs) <= len(tn.C.DFFs) {
		t.Errorf("normal mode DFFs %d, test mode %d", len(nn.C.DFFs), len(tn.C.DFFs))
	}
}

// The decisive integration test: gate-level normal-mode simulation equals
// the behavioural interpreter, for left-edge designs on every benchmark.
func TestGateLevelMatchesInterpreter(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, name := range dfg.BenchmarkNames() {
		g, _ := dfg.ByName(name, 8)
		d := buildLeftEdge(t, g)
		n, err := Generate(d, 8, NormalMode)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 10; trial++ {
			in := map[string]uint64{}
			for _, v := range g.Inputs() {
				in[g.Value(v).Name] = rng.Uint64()
			}
			want, err := g.Interpret(8, in)
			if err != nil {
				t.Fatal(err)
			}
			got, err := n.SimulatePass(in)
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

func TestSimulatePassRejectsTestMode(t *testing.T) {
	g := dfg.Tseng(8)
	d := buildLeftEdge(t, g)
	n, err := Generate(d, 8, TestMode)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.SimulatePass(map[string]uint64{}); err == nil {
		t.Fatal("expected mode error")
	}
}

func TestSimulatePassMissingInput(t *testing.T) {
	g := dfg.Tseng(8)
	d := buildLeftEdge(t, g)
	n, err := Generate(d, 8, NormalMode)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.SimulatePass(map[string]uint64{"a": 1}); err == nil {
		t.Fatal("expected missing-input error")
	}
}

func TestWidthScalesGateCount(t *testing.T) {
	g := dfg.Diffeq(8)
	d := buildLeftEdge(t, g)
	n4, err := Generate(d, 4, TestMode)
	if err != nil {
		t.Fatal(err)
	}
	n16, err := Generate(d, 16, TestMode)
	if err != nil {
		t.Fatal(err)
	}
	if n16.C.NumGates() <= 4*n4.C.NumGates() {
		t.Errorf("multiplier-heavy design should grow superlinearly: %d vs %d gates",
			n4.C.NumGates(), n16.C.NumGates())
	}
}

func TestCtrlNamesDeterministic(t *testing.T) {
	g := dfg.Dct(8)
	d := buildLeftEdge(t, g)
	n1, err := Generate(d, 8, TestMode)
	if err != nil {
		t.Fatal(err)
	}
	n2, err := Generate(d, 8, TestMode)
	if err != nil {
		t.Fatal(err)
	}
	if len(n1.Ctrl) != len(n2.Ctrl) {
		t.Fatal("nondeterministic control count")
	}
	for i := range n1.Ctrl {
		if n1.Ctrl[i].Name != n2.Ctrl[i].Name {
			t.Fatalf("nondeterministic control order: %s vs %s", n1.Ctrl[i].Name, n2.Ctrl[i].Name)
		}
		if !strings.HasPrefix(n1.Ctrl[i].Name, "ld_") && !strings.HasPrefix(n1.Ctrl[i].Name, "sel_") && !strings.HasPrefix(n1.Ctrl[i].Name, "op_") {
			t.Errorf("unexpected control name %s", n1.Ctrl[i].Name)
		}
	}
}
