package logicsim

import "repro/internal/fault"

// WithBlockCycles makes tr simulate in blocks of n cycles, so a test can
// split short sequences into many blocks.
func (tr *Trace) WithBlockCycles(n int) *Trace {
	tr.per = n
	return tr
}

// BlockCycles returns the number of cycles in each of tr's blocks.
func (tr *Trace) BlockCycles() int { return tr.blockCycles() }

// goodBlock runs tr's good machine over every cycle in one block.
func goodBlock(tr *Trace) *block {
	b := newBlock(tr.p, len(tr.vectors))
	sim := New(tr.p)
	sim.SetState(tr.state)
	b.fill(sim, 0, tr.vectors)
	return b
}

// outputs returns the primary-output words of row.
func outputs(tr *Trace, row []uint64) []uint64 {
	out := make([]uint64, len(tr.p.POs))
	for k, q := range tr.p.POs {
		out[k] = row[q]
	}
	return out
}

// FaultyOutputs runs the fault-simulation kernel's cycle step for f over
// every cycle of tr and returns the faulty machine's primary-output words
// per cycle, the view the differential tests compare with the reference
// evaluator.
func FaultyOutputs(tr *Trace, f *fault.Fault) [][]uint64 {
	b := goodBlock(tr)
	s := newFaulty(tr.p)
	defer s.eject(s.inject(f))
	out := make([][]uint64, b.cycles)
	for t := range out {
		row := b.row(t)
		s.step(row)
		if s.quiet {
			copy(s.cur, row)
		}
		out[t] = outputs(tr, s.cur)
	}
	return out
}

// GoodOutputs returns the good machine's primary-output words per cycle.
func (tr *Trace) GoodOutputs() [][]uint64 {
	b := goodBlock(tr)
	out := make([][]uint64, b.cycles)
	for t := range out {
		out[t] = outputs(tr, b.row(t))
	}
	return out
}

// Run resets the simulator and applies a vector sequence, returning the
// outputs of every cycle. vectors[t] holds one word per PI. The rows are
// copies (they stay valid across later Eval/Step calls), carved from one
// flat backing array.
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
