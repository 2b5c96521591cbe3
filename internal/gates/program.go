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

// Program is a Circuit compiled into flat, levelized arrays: the form the
// logic simulator and PODEM evaluate. Gate ids and net ids are the
// circuit's. A Program is immutable once compiled and safe to share
// between goroutines.
type Program struct {
	C  *Circuit
	Op []Op
	// The fanin of gate g is In[InOff[g]:InOff[g+1]], in pin order; the
	// readers of net g are Fan[FanOff[g]:FanOff[g+1]], by ascending id.
	InOff, In   []int32
	FanOff, Fan []int32
	// Order is the circuit's Levelize order (every gate after its
	// combinational fanin) and Pos its inverse: Pos[Order[i]] == i. A
	// forward sweep over positions is an evaluation order, which is how
	// the event-driven kernels schedule gates.
	Order, Pos []int32
	// ByPos is the program relaid by Order position, the layout the
	// event-driven kernels sweep.
	ByPos Layout
	// PIs, DFFs and POs are the circuit's Inputs, DFFs and Outputs; PIIx
	// maps a gate to its primary-input index, -1 for every other gate.
	PIs, DFFs, POs []int32
	PIIx           []int32
	// ObsDist is the static fanout distance from a gate to the nearest
	// primary output, crossing flip-flops freely (1<<29 when no output is
	// reachable).
	ObsDist []int32
}

// Layout is a Program relaid by Order position: the gate at position q
// has opcode Op[q], reads the positions In[InOff[q]:InOff[q+1]] in pin
// order and is read by Rd[RdOff[q]:RdOff[q+1]], in Fanout order: a
// combinational gate by its position, a flip-flop by the complement ^q of
// its position, as its read only takes effect at the next clock.
type Layout struct {
	Op        []Op
	InOff, In []int32
	RdOff, Rd []int32
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
		C:       c,
		Op:      make([]Op, n),
		InOff:   make([]int32, n+1),
		FanOff:  make([]int32, n+1),
		Order:   make([]int32, n),
		Pos:     make([]int32, n),
		PIs:     int32s(c.Inputs),
		DFFs:    int32s(c.DFFs),
		POs:     int32s(c.Outputs),
		PIIx:    make([]int32, n),
		ObsDist: make([]int32, n),
	}
	for _, g := range c.Gates {
		p.Op[g.ID] = Op(g.Kind)
		p.InOff[g.ID+1] = p.InOff[g.ID] + int32(len(g.In))
		for _, in := range g.In {
			p.FanOff[in+1]++
		}
		p.PIIx[g.ID] = -1
	}
	p.In = make([]int32, p.InOff[n])
	for _, g := range c.Gates {
		for pin, in := range g.In {
			p.In[int(p.InOff[g.ID])+pin] = int32(in)
		}
	}
	for g := 0; g < n; g++ {
		p.FanOff[g+1] += p.FanOff[g]
	}
	p.Fan = make([]int32, len(p.In))
	next := append([]int32(nil), p.FanOff[:n]...)
	for _, g := range c.Gates {
		for _, in := range g.In {
			p.Fan[next[in]] = int32(g.ID)
			next[in]++
		}
	}
	for i, id := range order {
		p.Order[i], p.Pos[id] = int32(id), int32(i)
	}
	p.ByPos = p.relay()
	for k, id := range p.PIs {
		p.PIIx[id] = int32(k)
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
		id := queue[0]
		queue = queue[1:]
		for _, in := range p.In[p.InOff[id]:p.InOff[id+1]] {
			if p.ObsDist[in] > p.ObsDist[id]+1 {
				p.ObsDist[in] = p.ObsDist[id] + 1
				queue = append(queue, in)
			}
		}
	}
	return p, nil
}

// relay lays the program out by Order position.
func (p *Program) relay() Layout {
	n := len(p.Op)
	l := Layout{
		Op:    make([]Op, n),
		InOff: make([]int32, n+1),
		In:    make([]int32, 0, len(p.In)),
		RdOff: make([]int32, n+1),
		Rd:    make([]int32, 0, len(p.Fan)),
	}
	for q, id := range p.Order {
		l.Op[q] = p.Op[id]
		for _, x := range p.Fanin(id) {
			l.In = append(l.In, p.Pos[x])
		}
		for _, r := range p.Fanout(id) {
			if p.Op[r] == OpDFF {
				l.Rd = append(l.Rd, ^p.Pos[r])
			} else {
				l.Rd = append(l.Rd, p.Pos[r])
			}
		}
		l.InOff[q+1], l.RdOff[q+1] = int32(len(l.In)), int32(len(l.Rd))
	}
	return l
}

// Fanin returns the nets gate g reads, in pin order.
func (p *Program) Fanin(g int32) []int32 { return p.In[p.InOff[g]:p.InOff[g+1]] }

// Fanout returns the gates reading net g, by ascending id.
func (p *Program) Fanout(g int32) []int32 { return p.Fan[p.FanOff[g]:p.FanOff[g+1]] }

func int32s(ids []int) []int32 {
	out := make([]int32, len(ids))
	for i, id := range ids {
		out[i] = int32(id)
	}
	return out
}
