package gates

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randCircuit builds a random circuit over nIn inputs and nFF flip-flops
// with some constants mixed in, returning the builder-completed circuit.
// Each flip-flop's D input is a random net; with nFF 0 the circuit is
// combinational.
func randCircuit(seed int64, nIn, nFF, nGates int) *Circuit {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder()
	var nets, ffs []int
	for i := 0; i < nIn; i++ {
		nets = append(nets, b.Input(""))
	}
	for i := 0; i < nFF; i++ {
		ffs = append(ffs, b.DFF(""))
	}
	nets = append(nets, ffs...)
	nets = append(nets, b.Const(false), b.Const(true))
	pick := func() int { return nets[rng.Intn(len(nets))] }
	for i := 0; i < nGates; i++ {
		var g int
		switch rng.Intn(7) {
		case 0:
			g = b.And(pick(), pick())
		case 1:
			g = b.Or(pick(), pick())
		case 2:
			g = b.Nand(pick(), pick())
		case 3:
			g = b.Nor(pick(), pick())
		case 4:
			g = b.Xor(pick(), pick())
		case 5:
			g = b.Xnor(pick(), pick())
		default:
			g = b.Not(pick())
		}
		nets = append(nets, g)
	}
	for i := 0; i < 4; i++ {
		b.Output("", pick())
	}
	for _, q := range ffs {
		b.SetD(q, pick())
	}
	c, err := b.Done()
	if err != nil {
		panic(err)
	}
	return c
}

// evalAll evaluates a combinational circuit on one input assignment.
func evalAll(c *Circuit, in []bool) []bool {
	vals := make([]bool, len(c.Gates))
	order, err := c.Levelize()
	if err != nil {
		panic(err)
	}
	inIx := map[int]int{}
	for i, id := range c.Inputs {
		inIx[id] = i
	}
	for _, id := range order {
		g := c.Gates[id]
		switch g.Kind {
		case KInput:
			vals[id] = in[inIx[id]]
		case KConst0:
			vals[id] = false
		case KConst1:
			vals[id] = true
		case KBuf, KDFF:
			if len(g.In) > 0 {
				vals[id] = vals[g.In[0]]
			}
		case KNot:
			vals[id] = !vals[g.In[0]]
		case KAnd, KNand:
			v := true
			for _, x := range g.In {
				v = v && vals[x]
			}
			vals[id] = v != (g.Kind == KNand)
		case KOr, KNor:
			v := false
			for _, x := range g.In {
				v = v || vals[x]
			}
			vals[id] = v != (g.Kind == KNor)
		case KXor:
			vals[id] = vals[g.In[0]] != vals[g.In[1]]
		case KXnor:
			vals[id] = vals[g.In[0]] == vals[g.In[1]]
		}
	}
	out := make([]bool, len(c.Outputs))
	for i, o := range c.Outputs {
		out[i] = vals[o]
	}
	return out
}

// Optimize must preserve the function exactly, for every input pattern of
// random constant-laden circuits.
func TestOptimizePreservesFunction(t *testing.T) {
	prop := func(seed int64) bool {
		c := randCircuit(seed, 5, 0, 30)
		opt, _, err := Optimize(c)
		if err != nil {
			return false
		}
		if len(opt.Inputs) != len(c.Inputs) {
			return false
		}
		for pattern := 0; pattern < 32; pattern++ {
			in := make([]bool, 5)
			for i := range in {
				in[i] = pattern&(1<<uint(i)) != 0
			}
			a := evalAll(c, in)
			b := evalAll(opt, in)
			for k := range a {
				if a[k] != b[k] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestOptimizeShrinksConstantLogic(t *testing.T) {
	b := NewBuilder()
	x := b.Input("x")
	zero := b.Const(false)
	one := b.Const(true)
	// A cone of constant-fed logic that all folds away.
	a1 := b.And(x, zero) // = 0
	o1 := b.Or(a1, one)  // = 1
	x1 := b.Xor(o1, one) // = 0
	fin := b.Or(x, x1)   // = x
	b.Output("y", fin)
	c, err := b.Done()
	if err != nil {
		t.Fatal(err)
	}
	opt, remap, err := Optimize(c)
	if err != nil {
		t.Fatal(err)
	}
	// y must now be the input directly (plus possibly a const gate).
	if remap[fin] != remap[x] {
		t.Errorf("OR(x, 0) did not fold to x: %d vs %d", remap[fin], remap[x])
	}
	if opt.NumGates() >= c.NumGates() {
		t.Errorf("no shrink: %d -> %d gates", c.NumGates(), opt.NumGates())
	}
}

func TestOptimizeKeepsSequentialBehaviour(t *testing.T) {
	// q <= XOR(q, 1) toggles every cycle; optimization folds XOR(q,1) to
	// NOT(q) and must keep the toggle.
	b := NewBuilder()
	q := b.DFF("q")
	one := b.Const(true)
	b.SetD(q, b.Xor(q, one))
	b.Output("q", q)
	c, err := b.Done()
	if err != nil {
		t.Fatal(err)
	}
	opt, _, err := Optimize(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(opt.DFFs) != 1 {
		t.Fatalf("DFF lost: %d", len(opt.DFFs))
	}
	// Simulate 4 cycles by hand: q = 0,1,0,1.
	state := false
	for cyc := 0; cyc < 4; cyc++ {
		vals := make([]bool, len(opt.Gates))
		order, _ := opt.Levelize()
		for _, id := range order {
			g := opt.Gates[id]
			switch g.Kind {
			case KDFF:
				vals[id] = state
			case KConst1:
				vals[id] = true
			case KNot:
				vals[id] = !vals[g.In[0]]
			case KXor:
				vals[id] = vals[g.In[0]] != vals[g.In[1]]
			case KBuf:
				vals[id] = vals[g.In[0]]
			}
		}
		if got := vals[opt.Outputs[0]]; got != (cyc%2 == 1) == false && got != (cyc%2 == 1) {
			_ = got
		}
		if vals[opt.Outputs[0]] != state {
			t.Fatalf("cycle %d: output %v, state %v", cyc, vals[opt.Outputs[0]], state)
		}
		state = vals[opt.Gates[opt.DFFs[0]].In[0]]
	}
	if state != false { // after 4 toggles back to 0
		t.Errorf("toggle broken: final state %v", state)
	}
}

func TestOptimizeDropsDeadLogic(t *testing.T) {
	b := NewBuilder()
	x := b.Input("x")
	y := b.Input("y")
	_ = b.And(x, y) // dead
	b.Output("o", b.Or(x, y))
	c, err := b.Done()
	if err != nil {
		t.Fatal(err)
	}
	opt, remap, err := Optimize(c)
	if err != nil {
		t.Fatal(err)
	}
	dead := 0
	for _, m := range remap {
		if m < 0 {
			dead++
		}
	}
	if dead == 0 {
		t.Error("dead AND gate survived")
	}
	if len(opt.Inputs) != 2 {
		t.Error("inputs must always survive")
	}
}
