// Package logicsim is a 64-way bit-parallel two-valued logic simulator for
// synchronous gate-level netlists, with single-fault injection: the engine
// behind fault simulation and the random phase of ATPG. Each net carries a
// 64-bit word, one bit per parallel pattern.
package logicsim

import (
	"fmt"
	"sort"

	"repro/internal/fault"
	"repro/internal/gates"
)

// Sim simulates one compiled circuit. A Sim carries DFF state between
// Step calls; Reset clears it. Not safe for concurrent use; any number of
// Sims may share one Program.
type Sim struct {
	p *gates.Program
	// gates lists the computed gates (everything but inputs and
	// flip-flops) in the program's Order.
	gates []instr
	// in is the program's fanin array with, under a pin fault, the faulted
	// slot redirected to one of the two constant nets that follow the
	// circuit's nets in vals (n: all zeros, n+1: all ones).
	in    []int32
	vals  []uint64
	state []uint64 // per DFF index
	po    []uint64 // Eval output buffer, reused across calls
	// An output fault forces net force to fval once gates[:cut] have been
	// evaluated (force is -1 when no net is forced); slot is the
	// redirected fanin slot of a pin fault, -1 when none is.
	force, slot int32
	fval        uint64
	cut         int
}

// instr is one computed gate: its opcode, output net and fanin slots
// in[lo:hi].
type instr struct {
	op     gates.Op
	out    int32
	lo, hi int32
}

// New prepares a fault-free simulator for the program.
func New(p *gates.Program) *Sim {
	n := len(p.Op)
	s := &Sim{
		p:     p,
		in:    append([]int32(nil), p.In...),
		vals:  make([]uint64, n+2),
		state: make([]uint64, len(p.DFFs)),
		po:    make([]uint64, len(p.POs)),
		force: -1,
		slot:  -1,
	}
	for _, id := range p.Order {
		if op := p.Op[id]; op != gates.OpInput && op != gates.OpDFF {
			s.gates = append(s.gates, instr{op, id, p.InOff[id], p.InOff[id+1]})
		}
	}
	s.cut = len(s.gates)
	s.vals[n+1] = ^uint64(0)
	return s
}

// SetFault injects f into every pattern lane of later evaluations,
// replacing any previous fault; nil restores the fault-free circuit.
func (s *Sim) SetFault(f *fault.Fault) {
	if s.slot >= 0 {
		s.in[s.slot] = s.p.In[s.slot]
	}
	n := len(s.p.Op)
	s.force, s.slot, s.cut = -1, -1, len(s.gates)
	if f == nil {
		return
	}
	stuck := 0
	if f.Val {
		stuck = 1
	}
	if f.Pin >= 0 {
		s.slot = s.p.InOff[f.Gate] + int32(f.Pin)
		s.in[s.slot] = int32(n + stuck)
		return
	}
	// Every gate comes after its combinational fanin in Order, so forcing
	// the faulted net right after its own position reaches all readers.
	s.force, s.fval = int32(f.Gate), s.vals[n+stuck]
	pos := s.p.Pos
	s.cut = sort.Search(len(s.gates), func(i int) bool { return pos[s.gates[i].out] > pos[f.Gate] })
}

// Reset zeroes all flip-flops.
func (s *Sim) Reset() {
	clear(s.state)
}

// SetState forces the DFF contents (by DFF declaration order).
func (s *Sim) SetState(vals []uint64) {
	copy(s.state, vals)
}

// State returns the current DFF contents (by declaration order). The
// caller must not modify the returned slice.
func (s *Sim) State() []uint64 { return s.state }

// Eval evaluates the combinational logic for the given primary-input
// words (one word per PI, in circuit input order) against the current DFF
// state, and returns the primary-output words. The returned slice is a
// per-Sim buffer, overwritten by the next Eval or Step call — callers
// that keep outputs across calls must copy them (Run does). Steady-state
// Eval performs no allocations; the fault-simulation inner loops depend
// on that.
func (s *Sim) Eval(pi []uint64) []uint64 {
	p := s.p
	if len(pi) != len(p.PIs) {
		panic(fmt.Sprintf("logicsim: %d input words for %d PIs", len(pi), len(p.PIs)))
	}
	for i, id := range p.PIs {
		s.vals[id] = pi[i]
	}
	for i, id := range p.DFFs {
		s.vals[id] = s.state[i]
	}
	s.run(s.gates[:s.cut])
	if s.force >= 0 {
		s.vals[s.force] = s.fval
	}
	s.run(s.gates[s.cut:])
	for i, id := range p.POs {
		s.po[i] = s.vals[id]
	}
	return s.po
}

// run evaluates gs in sequence. AND/OR-type gates have at least two
// inputs.
func (s *Sim) run(gs []instr) {
	vals, in := s.vals, s.in
	for _, g := range gs {
		ins := in[g.lo:g.hi]
		var v uint64
		switch g.op {
		case gates.OpConst0:
			v = 0
		case gates.OpConst1:
			v = ^uint64(0)
		case gates.OpBuf:
			v = vals[ins[0]]
		case gates.OpNot:
			v = ^vals[ins[0]]
		case gates.OpAnd:
			v = vals[ins[0]] & vals[ins[1]]
			for _, x := range ins[2:] {
				v &= vals[x]
			}
		case gates.OpNand:
			v = vals[ins[0]] & vals[ins[1]]
			for _, x := range ins[2:] {
				v &= vals[x]
			}
			v = ^v
		case gates.OpOr:
			v = vals[ins[0]] | vals[ins[1]]
			for _, x := range ins[2:] {
				v |= vals[x]
			}
		case gates.OpNor:
			v = vals[ins[0]] | vals[ins[1]]
			for _, x := range ins[2:] {
				v |= vals[x]
			}
			v = ^v
		case gates.OpXor:
			v = vals[ins[0]] ^ vals[ins[1]]
		case gates.OpXnor:
			v = ^(vals[ins[0]] ^ vals[ins[1]])
		}
		vals[g.out] = v
	}
}

// Step evaluates the combinational logic and then clocks every DFF,
// returning the primary outputs observed before the clock edge. Like
// Eval, the returned slice is the Sim's reused output buffer.
func (s *Sim) Step(pi []uint64) []uint64 {
	po := s.Eval(pi)
	for i, id := range s.p.DFFs {
		s.state[i] = s.vals[s.in[s.p.InOff[id]]]
	}
	return po
}

// Run resets the simulator and applies a vector sequence, returning the
// outputs of every cycle. vectors[t] holds one word per PI. The rows are
// copies (they stay valid across later Eval/Step calls), carved from one
// flat backing array so a whole golden run costs two allocations.
func (s *Sim) Run(vectors [][]uint64) [][]uint64 {
	s.Reset()
	nPO := len(s.p.POs)
	out := make([][]uint64, len(vectors))
	flat := make([]uint64, len(vectors)*nPO)
	for t, v := range vectors {
		po := s.Step(v)
		row := flat[t*nPO : (t+1)*nPO : (t+1)*nPO]
		copy(row, po)
		out[t] = row
	}
	return out
}

// WordFromValue returns the word carrying bit in all 64 pattern lanes:
// all ones for true, all zeros for false.
func WordFromValue(bit bool) uint64 {
	if bit {
		return ^uint64(0)
	}
	return 0
}

// BusWords converts a w-bit numeric value into per-net words for a bus
// (LSB first), replicated across all 64 patterns.
func BusWords(value uint64, w int) []uint64 {
	out := make([]uint64, w)
	for i := 0; i < w; i++ {
		out[i] = WordFromValue(value&(1<<uint(i)) != 0)
	}
	return out
}
