// Package logicsim is a 64-way bit-parallel two-valued logic simulator for
// synchronous gate-level netlists, and the fault simulator built on it: the
// engine behind the random phase of ATPG, fault dropping and BIST. Each net
// carries a 64-bit word, one bit per parallel pattern.
package logicsim

import (
	"fmt"

	"repro/internal/gates"
)

// Sim simulates one compiled, fault-free circuit. A Sim carries DFF state
// between Step calls; Reset clears it. Not safe for concurrent use; any
// number of Sims may share one Program. Faulty machines are simulated
// against a Trace of a Sim's run (faultsim.go).
type Sim struct {
	p *gates.Program
	// gates lists the computed gates (everything but inputs and
	// flip-flops) in the program's Order.
	gates []instr
	vals  []uint64 // per net
	state []uint64 // per DFF index
	po    []uint64 // Eval output buffer, reused across calls
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
		vals:  make([]uint64, n),
		state: make([]uint64, len(p.DFFs)),
		po:    make([]uint64, len(p.POs)),
	}
	for _, id := range p.Order {
		if op := p.Op[id]; op != gates.OpInput && op != gates.OpDFF {
			s.gates = append(s.gates, instr{op, id, p.InOff[id], p.InOff[id+1]})
		}
	}
	return s
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
// that keep outputs across calls must copy them. Steady-state Eval
// performs no allocations; the fault simulator's good run depends on
// that.
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
	s.run(s.gates)
	for i, id := range p.POs {
		s.po[i] = s.vals[id]
	}
	return s.po
}

// run evaluates gs in sequence. AND/OR-type gates have at least two
// inputs.
func (s *Sim) run(gs []instr) {
	vals, in := s.vals, s.p.In
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
		s.state[i] = s.vals[s.p.In[s.p.InOff[id]]]
	}
	return po
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
