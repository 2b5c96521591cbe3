package logicsim_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/fault"
	"repro/internal/gates"
	"repro/internal/logicsim"
	"repro/internal/rtl"
)

// refSim is the simulator the compiled-program Sim replaced: it walks the
// circuit's Levelize order, switches on the gate kind and compares every
// pin against the fault. TestSimMatchesReference requires Sim to
// reproduce its outputs word for word.
type refSim struct {
	c     *gates.Circuit
	order []int
	vals  []uint64
	state []uint64
	po    []uint64
	fault *fault.Fault
}

func newRefSim(t *testing.T, c *gates.Circuit) *refSim {
	t.Helper()
	order, err := c.Levelize()
	if err != nil {
		t.Fatal(err)
	}
	return &refSim{c: c, order: order, vals: make([]uint64, len(c.Gates)),
		state: make([]uint64, len(c.DFFs)), po: make([]uint64, len(c.Outputs))}
}

func (s *refSim) pinVal(g *gates.Gate, pin int) uint64 {
	v := s.vals[g.In[pin]]
	if s.fault != nil && s.fault.Gate == g.ID && s.fault.Pin == pin {
		return logicsim.WordFromValue(s.fault.Val)
	}
	return v
}

func (s *refSim) eval(pi []uint64) []uint64 {
	for i, id := range s.c.Inputs {
		s.vals[id] = pi[i]
	}
	for i, id := range s.c.DFFs {
		s.vals[id] = s.state[i]
	}
	for _, id := range s.order {
		g := s.c.Gates[id]
		var v uint64
		switch g.Kind {
		case gates.KInput, gates.KDFF:
			v = s.vals[id]
		case gates.KConst0:
			v = 0
		case gates.KConst1:
			v = ^uint64(0)
		case gates.KBuf:
			v = s.pinVal(g, 0)
		case gates.KNot:
			v = ^s.pinVal(g, 0)
		case gates.KAnd, gates.KNand:
			v = ^uint64(0)
			for pin := range g.In {
				v &= s.pinVal(g, pin)
			}
			if g.Kind == gates.KNand {
				v = ^v
			}
		case gates.KOr, gates.KNor:
			v = 0
			for pin := range g.In {
				v |= s.pinVal(g, pin)
			}
			if g.Kind == gates.KNor {
				v = ^v
			}
		case gates.KXor:
			v = s.pinVal(g, 0) ^ s.pinVal(g, 1)
		case gates.KXnor:
			v = ^(s.pinVal(g, 0) ^ s.pinVal(g, 1))
		}
		if s.fault != nil && s.fault.Gate == id && s.fault.Pin < 0 {
			v = logicsim.WordFromValue(s.fault.Val)
		}
		s.vals[id] = v
	}
	for i, id := range s.c.Outputs {
		s.po[i] = s.vals[id]
	}
	return s.po
}

func (s *refSim) step(pi []uint64) []uint64 {
	po := s.eval(pi)
	for i, id := range s.c.DFFs {
		s.state[i] = s.pinVal(s.c.Gates[id], 0)
	}
	return po
}

// randomCircuit builds a sequential circuit of every gate kind with
// random wiring: each gate reads earlier nets (so the logic is acyclic)
// and every flip-flop closes a feedback loop.
func randomCircuit(t *testing.T, seed int64) *gates.Circuit {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := gates.NewBuilder()
	var nets []int
	for i := 0; i < 6; i++ {
		nets = append(nets, b.Input(fmt.Sprintf("x%d", i)))
	}
	var dffs []int
	for i := 0; i < 5; i++ {
		dffs = append(dffs, b.DFF(fmt.Sprintf("q%d", i)))
	}
	nets = append(nets, dffs...)
	nets = append(nets, b.Const(false), b.Const(true))
	pick := func(k int) []int {
		xs := make([]int, k)
		for i := range xs {
			xs[i] = nets[rng.Intn(len(nets))]
		}
		return xs
	}
	for i := 0; i < 80; i++ {
		var g int
		switch rng.Intn(8) {
		case 0:
			g = b.Buf(pick(1)[0])
		case 1:
			g = b.Not(pick(1)[0])
		case 2:
			g = b.And(pick(2 + rng.Intn(3))...)
		case 3:
			g = b.Nand(pick(2 + rng.Intn(3))...)
		case 4:
			g = b.Or(pick(2 + rng.Intn(3))...)
		case 5:
			g = b.Nor(pick(2 + rng.Intn(3))...)
		case 6:
			x := pick(2)
			g = b.Xor(x[0], x[1])
		default:
			x := pick(2)
			g = b.Xnor(x[0], x[1])
		}
		nets = append(nets, g)
	}
	for _, q := range dffs {
		b.SetD(q, nets[len(nets)-1-rng.Intn(40)])
	}
	for i := 0; i < 8; i++ {
		b.Output(fmt.Sprintf("z%d", i), nets[len(nets)-1-rng.Intn(60)])
	}
	c, err := b.Done()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// paperNetlists synthesizes a benchmark with the paper's algorithm and
// returns its normal-mode and BIST netlists.
func paperNetlists(t *testing.T, name string) []*gates.Circuit {
	t.Helper()
	g, err := dfg.ByName(name, 4)
	if err != nil {
		t.Fatal(err)
	}
	par := core.DefaultParams(4)
	par.Workers = 1
	if name == dfg.BenchDiffeq {
		par.LoopSignal = "exit"
	}
	res, err := core.RunCtx(context.Background(), core.MethodOurs, g, par)
	if err != nil {
		t.Fatal(err)
	}
	nl, err := rtl.Generate(res.Design, 4, rtl.NormalMode)
	if err != nil {
		t.Fatal(err)
	}
	bn, err := rtl.GenerateBIST(res.Design, 4, rtl.NormalMode, []int{0}, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	return []*gates.Circuit{nl.C, bn.C}
}

// TestSimMatchesReference is the differential test of the compiled
// simulator: fault-free and under every collapsed fault, from a random
// flip-flop state, its primary outputs match the reference evaluator's on
// every cycle of 64-lane random vectors. One Sim serves each circuit's
// whole fault list, so replacing one fault by the next is exercised too.
func TestSimMatchesReference(t *testing.T) {
	var circuits []*gates.Circuit
	for seed := int64(1); seed <= 4; seed++ {
		circuits = append(circuits, randomCircuit(t, seed))
	}
	benches := []string{dfg.BenchEx, dfg.BenchDct, dfg.BenchDiffeq}
	if testing.Short() {
		benches = benches[:1]
	}
	for _, name := range benches {
		circuits = append(circuits, paperNetlists(t, name)...)
	}
	rng := rand.New(rand.NewSource(1998))
	for ci, c := range circuits {
		p, err := c.Compile()
		if err != nil {
			t.Fatal(err)
		}
		sim, ref := logicsim.New(p), newRefSim(t, c)
		vectors := make([][]uint64, 12)
		for tt := range vectors {
			vectors[tt] = make([]uint64, len(c.Inputs))
			for k := range vectors[tt] {
				vectors[tt][k] = rng.Uint64()
			}
		}
		state := make([]uint64, len(c.DFFs))
		flist := append([]fault.Fault{{}}, fault.Collapse(c)...)
		for i := range flist {
			f := &flist[i]
			if i == 0 {
				f = nil // fault-free
			}
			sim.SetFault(f)
			ref.fault = f
			for k := range state {
				state[k] = rng.Uint64()
			}
			sim.SetState(state)
			copy(ref.state, state)
			for tt, v := range vectors {
				got, want := sim.Step(v), ref.step(v)
				for k := range want {
					if got[k] != want[k] {
						t.Fatalf("circuit %d, fault %v, cycle %d, output %d: %#x, reference %#x", ci, f, tt, k, got[k], want[k])
					}
				}
			}
		}
	}
}
