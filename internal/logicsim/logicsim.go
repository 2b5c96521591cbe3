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
	p     *gates.Program
	code  gateCode
	vals  []uint64 // per position
	state []uint64 // per DFF index
	po    []uint64 // Eval output buffer, reused across calls
}

// New prepares a fault-free simulator for the program.
func New(p *gates.Program) *Sim {
	return &Sim{
		p:     p,
		code:  gateCode{p.Op, p.InOff, p.In},
		vals:  make([]uint64, len(p.Op)),
		state: make([]uint64, len(p.DFFs)),
		po:    make([]uint64, len(p.POs)),
	}
}

// Reset zeroes all flip-flops.
func (s *Sim) Reset() {
	clear(s.state)
}

// SetState forces the DFF contents (by DFF declaration order).
func (s *Sim) SetState(vals []uint64) {
	copy(s.state, vals)
}

// Eval evaluates the combinational logic for the given primary-input
// words (one word per PI, in circuit input order) against the current DFF
// state, and returns the primary-output words. The returned slice is a
// per-Sim buffer, overwritten by the next Eval or Step call — callers
// that keep outputs across calls must copy them. Steady-state Eval
// performs no allocations; the fault simulator's good run depends on
// that.
func (s *Sim) Eval(pi []uint64) []uint64 {
	s.evalInto(s.vals, pi)
	for i, q := range s.p.POs {
		s.po[i] = s.vals[q]
	}
	return s.po
}

// Step evaluates the combinational logic and then clocks every DFF,
// returning the primary outputs observed before the clock edge. Like
// Eval, the returned slice is the Sim's reused output buffer.
func (s *Sim) Step(pi []uint64) []uint64 {
	po := s.Eval(pi)
	s.clock(s.vals)
	return po
}

// evalInto evaluates every net of the cycle with inputs pi into vals, by
// position.
func (s *Sim) evalInto(vals, pi []uint64) {
	p := s.p
	if len(pi) != len(p.PIs) {
		panic(fmt.Sprintf("logicsim: %d input words for %d PIs", len(pi), len(p.PIs)))
	}
	for i, q := range p.PIs {
		vals[q] = pi[i]
	}
	for i, q := range p.DFFs {
		vals[q] = s.state[i]
	}
	s.code.evalRange(vals, p.Comb, len(p.Op))
}

// clock loads every DFF from its D net in vals.
func (s *Sim) clock(vals []uint64) {
	for i, q := range s.p.DFFs {
		s.state[i] = vals[s.p.In[s.p.InOff[q]]]
	}
}

// gateCode is what the gate evaluator reads of a program: the opcodes
// and the fanin lists, by position. The fault simulator's copy redirects
// a faulted pin. evalRange takes it by pointer so that its operands fit
// in registers: passed as three slices, they made the fault simulator's
// per-gate call measurably slower.
type gateCode struct {
	op        []gates.Op
	inOff, in []int32
}

// evalRange evaluates the combinational gates at positions lo..hi-1 over
// vals, reading the fanin of position q through in[inOff[q]:inOff[q+1]].
// It is the one 64-lane gate evaluator: the good machine sweeps a whole
// cycle with it and the fault simulator one divergent gate at a time.
// AND/OR-type gates have at least two inputs.
func (c *gateCode) evalRange(vals []uint64, lo, hi int) {
	op, inOff, in := c.op, c.inOff, c.in
	for q := lo; q < hi; q++ {
		a, b := inOff[q], inOff[q+1]
		var v uint64
		switch op[q] {
		case gates.OpConst0:
			v = 0
		case gates.OpConst1:
			v = ^uint64(0)
		case gates.OpBuf:
			v = vals[in[a]]
		case gates.OpNot:
			v = ^vals[in[a]]
		case gates.OpAnd:
			v = vals[in[a]] & vals[in[a+1]]
			for k := a + 2; k < b; k++ {
				v &= vals[in[k]]
			}
		case gates.OpNand:
			v = vals[in[a]] & vals[in[a+1]]
			for k := a + 2; k < b; k++ {
				v &= vals[in[k]]
			}
			v = ^v
		case gates.OpOr:
			v = vals[in[a]] | vals[in[a+1]]
			for k := a + 2; k < b; k++ {
				v |= vals[in[k]]
			}
		case gates.OpNor:
			v = vals[in[a]] | vals[in[a+1]]
			for k := a + 2; k < b; k++ {
				v |= vals[in[k]]
			}
			v = ^v
		case gates.OpXor:
			v = vals[in[a]] ^ vals[in[a+1]]
		case gates.OpXnor:
			v = ^(vals[in[a]] ^ vals[in[a+1]])
		}
		vals[q] = v
	}
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
