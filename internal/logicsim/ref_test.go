package logicsim_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/dfggen"
	"repro/internal/fault"
	"repro/internal/gates"
	"repro/internal/logicsim"
	"repro/internal/rtl"
)

// refSim is the simulator the compiled-program Sim replaced: it walks the
// circuit's Levelize order, switches on the gate kind and compares every
// pin against the fault. TestSimMatchesReference requires Sim and the
// fault-simulation kernel to reproduce its outputs word for word.
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

// paperDesigns caches the netlists of paperNetlists by name and width.
var paperDesigns sync.Map

// paperNetlists synthesizes a benchmark (or gen: spec) with the paper's
// algorithm, once per test binary, and returns its normal-mode netlist and
// a BIST netlist whose first register is a TPG and second a MISR.
func paperNetlists(t *testing.T, name string, width int) []*gates.Circuit {
	t.Helper()
	type entry struct {
		once sync.Once
		cs   []*gates.Circuit
		err  error
	}
	v, _ := paperDesigns.LoadOrStore(fmt.Sprintf("%s-%d", name, width), &entry{})
	e := v.(*entry)
	e.once.Do(func() {
		g, err := dfg.ByName(name, width)
		if err != nil {
			e.err = err
			return
		}
		par := core.DefaultParams(width)
		par.Workers = 1
		switch {
		case name == dfg.BenchDiffeq:
			par.LoopSignal = "exit"
		case dfggen.IsGenName(name):
			par.LoopSignal = dfggen.LoopSignal(name)
		}
		res, err := core.RunCtx(context.Background(), core.MethodOurs, g, par)
		if err != nil {
			e.err = err
			return
		}
		nl, err := rtl.Generate(res.Design, width, rtl.NormalMode)
		if err != nil {
			e.err = err
			return
		}
		bn, err := rtl.GenerateBIST(res.Design, width, rtl.NormalMode, []int{0}, []int{1})
		if err != nil {
			e.err = err
			return
		}
		e.cs = []*gates.Circuit{nl.C, bn.C}
	})
	if e.err != nil {
		t.Fatal(e.err)
	}
	return e.cs
}

// randomWords returns rows×k random 64-lane words.
func randomWords(rng *rand.Rand, rows, k int) [][]uint64 {
	out := make([][]uint64, rows)
	for i := range out {
		out[i] = make([]uint64, k)
		for j := range out[i] {
			out[i][j] = rng.Uint64()
		}
	}
	return out
}

// TestSimMatchesReference is the differential test of the compiled
// simulator and of the fault-simulation kernel's cycle step: fault-free,
// and under every fault (every enumerated fault of the random circuits,
// every collapsed fault of the paper's), from the reset state and from a
// random flip-flop state, their primary outputs match the reference
// evaluator's on every cycle of 64-lane random vectors.
func TestSimMatchesReference(t *testing.T) {
	type subject struct {
		c      *gates.Circuit
		faults []fault.Fault
	}
	var subjects []subject
	for seed := int64(1); seed <= 4; seed++ {
		c := randomCircuit(t, seed)
		subjects = append(subjects, subject{c, fault.Enumerate(c)})
	}
	benches := []string{dfg.BenchEx, dfg.BenchDct, dfg.BenchDiffeq}
	if testing.Short() {
		benches = benches[:1]
	}
	for _, name := range benches {
		for _, c := range paperNetlists(t, name, 4) {
			subjects = append(subjects, subject{c, fault.Collapse(c)})
		}
	}
	rng := rand.New(rand.NewSource(1998))
	for ci, sub := range subjects {
		c := sub.c
		p, err := c.Compile()
		if err != nil {
			t.Fatal(err)
		}
		vectors := randomWords(rng, 12, len(c.Inputs))
		for _, state := range [][]uint64{make([]uint64, len(c.DFFs)), randomWords(rng, 1, len(c.DFFs))[0]} {
			ref := newRefSim(t, c)
			want := make([][]uint64, len(vectors))
			sim := logicsim.New(p)
			sim.SetState(state)
			copy(ref.state, state)
			for tt, v := range vectors {
				got := sim.Step(v)
				want[tt] = append([]uint64(nil), ref.step(v)...)
				for k := range want[tt] {
					if got[k] != want[tt][k] {
						t.Fatalf("circuit %d, fault-free, cycle %d, output %d: %#x, reference %#x", ci, tt, k, got[k], want[tt][k])
					}
				}
			}
			tr := logicsim.NewTrace(p, state, vectors)
			for tt, good := range tr.GoodOutputs() {
				for k, got := range good {
					if got != want[tt][k] {
						t.Fatalf("circuit %d, trace cycle %d, output %d: %#x, reference %#x", ci, tt, k, got, want[tt][k])
					}
				}
			}
			for i := range sub.faults {
				f := &sub.faults[i]
				got := logicsim.FaultyOutputs(tr, f)
				ref.fault = f
				copy(ref.state, state)
				for tt, v := range vectors {
					want := ref.step(v)
					for k := range want {
						if got[tt][k] != want[k] {
							t.Fatalf("circuit %d, fault %v, cycle %d, output %d: %#x, reference %#x", ci, f, tt, k, got[tt][k], want[k])
						}
					}
				}
			}
		}
	}
}
