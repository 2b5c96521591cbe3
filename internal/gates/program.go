package gates

import "fmt"

// Op is the opcode of one gate in a compiled Program.
type Op uint8

// Opcodes, numbered like the gate kinds they compile from. OpInput and
// OpDFF are loaded by a simulator (stimulus, flip-flop state) rather than
// computed.
const (
	OpInput Op = iota
	OpConst0
	OpConst1
	OpBuf
	OpNot
	OpAnd
	OpOr
	OpNand
	OpNor
	OpXor
	OpXnor
	OpDFF
)

// Source reports whether the opcode is a source: a primary input,
// flip-flop or constant, none of which reads a net of its own frame.
func (o Op) Source() bool { return o <= OpConst1 || o == OpDFF }

// Program is a Circuit compiled into flat arrays: the form the logic
// simulator, the fault simulator and PODEM evaluate. Every net is numbered
// by its position in an evaluation order: the inputs and flip-flops take
// positions 0..Comb-1, and every other gate follows, in the circuit's
// Levelize order, the gates it reads. So a forward sweep over positions
// evaluates a frame, and the event-driven kernels schedule gates by
// position. A Program is immutable once compiled and safe to share
// between goroutines.
type Program struct {
	Op []Op
	// The gate at position q reads the positions In[InOff[q]:InOff[q+1]]
	// in pin order and is read by Rd[RdOff[q]:RdOff[q+1]], by ascending
	// circuit id: a combinational gate by its position, a flip-flop by the
	// complement ^q of its position, as its read only takes effect at the
	// next clock.
	InOff, In []int32
	RdOff, Rd []int32
	// Comb is the first position that is neither an input nor a
	// flip-flop.
	Comb int
	// PIs, DFFs and POs are the positions of the circuit's Inputs, DFFs
	// and Outputs; PIIx maps a position to its primary-input index, -1 for
	// every other gate.
	PIs, DFFs, POs []int32
	PIIx           []int32
	// ObsDist is the static fanout distance from a gate to the nearest
	// primary output, crossing flip-flops freely (1<<29 when no output is
	// reachable).
	ObsDist []int32
	// Pos maps a circuit gate id to its position: where a fault site
	// enters the program.
	Pos []int32
}

// Compile levelizes c and flattens it into a Program. It fails on
// combinational cycles and on flip-flops whose D input is unwired.
func (c *Circuit) Compile() (*Program, error) {
	order, err := c.Levelize()
	if err != nil {
		return nil, err
	}
	for _, id := range c.DFFs {
		if len(c.Gates[id].In) != 1 {
			return nil, fmt.Errorf("gates: DFF %d has no D input", id)
		}
	}
	n := len(c.Gates)
	p := &Program{
		Op:      make([]Op, n),
		InOff:   make([]int32, n+1),
		In:      make([]int32, 0, n),
		RdOff:   make([]int32, n+1),
		PIIx:    make([]int32, n),
		ObsDist: make([]int32, n),
		Pos:     make([]int32, n),
	}
	// A stable partition of the Levelize order puts the inputs and
	// flip-flops, which a simulator loads rather than computes, first.
	loaded := func(id int) bool { k := c.Gates[id].Kind; return k == KInput || k == KDFF }
	ids := make([]int, 0, n)
	for _, id := range order {
		if loaded(id) {
			ids = append(ids, id)
		}
	}
	p.Comb = len(ids)
	for _, id := range order {
		if !loaded(id) {
			ids = append(ids, id)
		}
	}
	for q, id := range ids {
		p.Pos[id] = int32(q)
	}
	for q, id := range ids {
		g := c.Gates[id]
		p.Op[q] = Op(g.Kind)
		for _, in := range g.In {
			p.In = append(p.In, p.Pos[in])
			p.RdOff[p.Pos[in]+1]++
		}
		p.InOff[q+1] = int32(len(p.In))
		p.PIIx[q] = -1
	}
	for q := 0; q < n; q++ {
		p.RdOff[q+1] += p.RdOff[q]
	}
	p.Rd = make([]int32, len(p.In))
	next := append([]int32(nil), p.RdOff[:n]...)
	for _, g := range c.Gates {
		r := p.Pos[g.ID]
		if g.Kind == KDFF {
			r = ^r
		}
		for _, in := range g.In {
			p.Rd[next[p.Pos[in]]] = r
			next[p.Pos[in]]++
		}
	}
	p.PIs, p.DFFs, p.POs = p.positions(c.Inputs), p.positions(c.DFFs), p.positions(c.Outputs)
	for k, q := range p.PIs {
		p.PIIx[q] = int32(k)
	}
	const inf = 1 << 29
	for i := range p.ObsDist {
		p.ObsDist[i] = inf
	}
	queue := make([]int32, 0, n)
	for _, o := range p.POs {
		if p.ObsDist[o] == inf {
			p.ObsDist[o] = 0
			queue = append(queue, o)
		}
	}
	for len(queue) > 0 {
		q := queue[0]
		queue = queue[1:]
		for _, in := range p.Fanin(q) {
			if p.ObsDist[in] > p.ObsDist[q]+1 {
				p.ObsDist[in] = p.ObsDist[q] + 1
				queue = append(queue, in)
			}
		}
	}
	return p, nil
}

// Fanin returns the positions the gate at position q reads, in pin order.
func (p *Program) Fanin(q int32) []int32 { return p.In[p.InOff[q]:p.InOff[q+1]] }

// Readers returns the readers of the net at position q (see Rd).
func (p *Program) Readers(q int32) []int32 { return p.Rd[p.RdOff[q]:p.RdOff[q+1]] }

// positions maps circuit gate ids to positions.
func (p *Program) positions(ids []int) []int32 {
	out := make([]int32, len(ids))
	for i, id := range ids {
		out[i] = p.Pos[id]
	}
	return out
}
