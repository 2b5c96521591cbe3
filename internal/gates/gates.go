// Package gates provides a gate-level netlist representation and builders
// for the arithmetic components the RTL generator instantiates: ripple-
// carry adders and subtracters, array multipliers, comparators, one-hot
// multiplexers and D flip-flops. The netlist is the substrate for the
// logic/fault simulator and the ATPG engine.
package gates

import "fmt"

// Kind enumerates gate types.
type Kind int

// Gate kinds. Input gates are primary inputs; Const0/Const1 are tie-offs.
// DFF is a D flip-flop: its single input is the D net and its output is Q.
const (
	KInput Kind = iota
	KConst0
	KConst1
	KBuf
	KNot
	KAnd
	KOr
	KNand
	KNor
	KXor
	KXnor
	KDFF
)

var kindNames = [...]string{"input", "const0", "const1", "buf", "not", "and", "or", "nand", "nor", "xor", "xnor", "dff"}

// String returns the gate-kind name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// maxFanin returns the maximum number of inputs the kind accepts
// (0 = none, -1 = unbounded).
func (k Kind) maxFanin() int {
	switch k {
	case KInput, KConst0, KConst1:
		return 0
	case KBuf, KNot, KDFF:
		return 1
	default:
		return -1
	}
}

// Gate is one netlist node; its output net is identified by the gate id.
type Gate struct {
	ID   int
	Kind Kind
	In   []int
	Name string // diagnostic label; inputs and DFFs are always named
}

// Circuit is a synchronous gate-level netlist: combinational gates plus D
// flip-flops clocked by a single implicit clock.
type Circuit struct {
	Gates   []*Gate
	Inputs  []int // primary-input gate ids, in declaration order
	Outputs []int // observed nets, in declaration order
	DFFs    []int // flip-flop gate ids, in declaration order

	OutputNames []string
}

// NumGates returns the total gate count.
func (c *Circuit) NumGates() int { return len(c.Gates) }

// Stats summarizes the netlist.
func (c *Circuit) Stats() string {
	comb := 0
	for _, g := range c.Gates {
		switch g.Kind {
		case KInput, KConst0, KConst1, KDFF:
		default:
			comb++
		}
	}
	return fmt.Sprintf("%d gates (%d combinational), %d PIs, %d POs, %d DFFs",
		len(c.Gates), comb, len(c.Inputs), len(c.Outputs), len(c.DFFs))
}

// Validate checks fanin arities and id consistency.
func (c *Circuit) Validate() error {
	for i, g := range c.Gates {
		if g.ID != i {
			return fmt.Errorf("gates: gate %d has inconsistent id %d", i, g.ID)
		}
		switch mf := g.Kind.maxFanin(); {
		case mf == 0 && len(g.In) != 0:
			return fmt.Errorf("gates: %s gate %d must have no inputs", g.Kind, i)
		case mf == 1 && len(g.In) != 1:
			return fmt.Errorf("gates: %s gate %d must have exactly one input", g.Kind, i)
		case mf < 0 && len(g.In) < 2:
			return fmt.Errorf("gates: %s gate %d needs at least two inputs", g.Kind, i)
		}
		for _, in := range g.In {
			if in < 0 || in >= len(c.Gates) {
				return fmt.Errorf("gates: gate %d reads unknown net %d", i, in)
			}
		}
	}
	for _, o := range c.Outputs {
		if o < 0 || o >= len(c.Gates) {
			return fmt.Errorf("gates: output references unknown net %d", o)
		}
	}
	if len(c.Outputs) != len(c.OutputNames) {
		return fmt.Errorf("gates: %d outputs but %d output names", len(c.Outputs), len(c.OutputNames))
	}
	return nil
}

// Levelize returns the combinational evaluation order: every non-DFF,
// non-source gate after all of its combinational predecessors. DFF outputs
// and primary inputs are sources. An error is returned if the
// combinational logic is cyclic.
func (c *Circuit) Levelize() ([]int, error) {
	state := make([]int, len(c.Gates)) // 0 unvisited, 1 visiting, 2 done
	var order []int
	var visit func(int) error
	visit = func(id int) error {
		switch state[id] {
		case 1:
			return fmt.Errorf("gates: combinational cycle through gate %d (%s)", id, c.Gates[id].Name)
		case 2:
			return nil
		}
		state[id] = 1
		g := c.Gates[id]
		if g.Kind != KDFF && g.Kind != KInput && g.Kind != KConst0 && g.Kind != KConst1 {
			for _, in := range g.In {
				if err := visit(in); err != nil {
					return err
				}
			}
		}
		state[id] = 2
		order = append(order, id)
		return nil
	}
	for id := range c.Gates {
		if err := visit(id); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// Builder constructs circuits.
type Builder struct {
	c *Circuit
}

// NewBuilder returns an empty circuit builder.
func NewBuilder() *Builder { return &Builder{c: &Circuit{}} }

// Done returns the built circuit after validation.
func (b *Builder) Done() (*Circuit, error) {
	if err := b.c.Validate(); err != nil {
		return nil, err
	}
	if _, err := b.c.Levelize(); err != nil {
		return nil, err
	}
	return b.c, nil
}

// Circuit returns the circuit under construction without validation.
func (b *Builder) Circuit() *Circuit { return b.c }

func (b *Builder) add(k Kind, name string, in ...int) int {
	g := &Gate{ID: len(b.c.Gates), Kind: k, In: in, Name: name}
	b.c.Gates = append(b.c.Gates, g)
	return g.ID
}

// Input declares a primary input.
func (b *Builder) Input(name string) int {
	id := b.add(KInput, name)
	b.c.Inputs = append(b.c.Inputs, id)
	return id
}

// Const returns a constant 0/1 net.
func (b *Builder) Const(v bool) int {
	if v {
		return b.add(KConst1, "1")
	}
	return b.add(KConst0, "0")
}

// DFF declares a flip-flop; its D input is wired later with SetD (state
// feedback needs forward references).
func (b *Builder) DFF(name string) int {
	id := b.add(KDFF, name)
	b.c.DFFs = append(b.c.DFFs, id)
	return id
}

// SetD wires the D input of flip-flop ff to net d.
func (b *Builder) SetD(ff, d int) {
	g := b.c.Gates[ff]
	if g.Kind != KDFF {
		panic(fmt.Sprintf("gates: SetD on non-DFF gate %d", ff))
	}
	g.In = []int{d}
}

// Output marks net g as a primary output with the given name.
func (b *Builder) Output(name string, g int) {
	b.c.Outputs = append(b.c.Outputs, g)
	b.c.OutputNames = append(b.c.OutputNames, name)
}

// Logic gate constructors.

// Not returns the complement of x.
func (b *Builder) Not(x int) int { return b.add(KNot, "", x) }

// Buf returns a buffered copy of x.
func (b *Builder) Buf(x int) int { return b.add(KBuf, "", x) }

// And returns the conjunction of the operands.
func (b *Builder) And(xs ...int) int { return b.add(KAnd, "", xs...) }

// Or returns the disjunction of the operands.
func (b *Builder) Or(xs ...int) int { return b.add(KOr, "", xs...) }

// Nand returns the complemented conjunction.
func (b *Builder) Nand(xs ...int) int { return b.add(KNand, "", xs...) }

// Nor returns the complemented disjunction.
func (b *Builder) Nor(xs ...int) int { return b.add(KNor, "", xs...) }

// Xor returns the exclusive or.
func (b *Builder) Xor(x, y int) int { return b.add(KXor, "", x, y) }

// Xnor returns the complemented exclusive or.
func (b *Builder) Xnor(x, y int) int { return b.add(KXnor, "", x, y) }

// Mux2 returns sel ? a : b (bitwise on single nets).
func (b *Builder) Mux2(sel, a, bb int) int {
	return b.Or(b.And(sel, a), b.And(b.Not(sel), bb))
}

// Depth returns the maximum combinational depth of the circuit in gates:
// the longest register-to-register (or port-to-port) path, a proxy for the
// minimum clock period of the synthesized data path.
func (c *Circuit) Depth() (int, error) {
	order, err := c.Levelize()
	if err != nil {
		return 0, err
	}
	depth := make([]int, len(c.Gates))
	max := 0
	for _, id := range order {
		g := c.Gates[id]
		switch g.Kind {
		case KInput, KConst0, KConst1, KDFF:
			depth[id] = 0
		default:
			d := 0
			for _, in := range g.In {
				if depth[in] > d {
					d = depth[in]
				}
			}
			depth[id] = d + 1
			if depth[id] > max {
				max = depth[id]
			}
		}
	}
	// Paths ending at DFF D inputs count too.
	for _, id := range c.DFFs {
		if in := c.Gates[id].In; len(in) == 1 && depth[in[0]] > max {
			max = depth[in[0]]
		}
	}
	return max, nil
}
