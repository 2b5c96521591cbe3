package logicsim

import (
	"context"
	"math/bits"
	"sync/atomic"

	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/gates"
	"repro/internal/parallel"
)

// Fault simulation is serial-fault and parallel-pattern: each fault is
// simulated on its own, and every net carries 64 pattern lanes. The good
// machine runs once per block of cycles into rows of net words; a faulty
// machine then evaluates only where it differs from the good one (PROOFS:
// Niermann, Cheng & Patel, DAC 1990). Each cycle starts from the good
// row, loads the flip-flops whose faulty state differs, applies the fault,
// and re-evaluates, in levelized order over the fanout lists, only the
// gates that read a changed net. Only the flip-flop bits that differ carry
// into the next cycle, and into the next block.
//
// Nets are numbered by program position, so a forward sweep over
// positions is an evaluation order and the rows, the fanin and reader
// lists and the scratch arrays are all laid out in the order the sweep
// touches them.

// traceWords bounds the good rows a simulation holds, in words (8 MiB): a
// vector sequence longer than fits runs in blocks of as many cycles as
// do, so memory does not grow with the sequence's length.
var traceWords = 1 << 20

// Trace is a vector sequence applied to a program from a flip-flop state:
// the good machine the faulty machines are compared against.
type Trace struct {
	p       *gates.Program
	state   []uint64
	vectors [][]uint64
	// per is the number of cycles in a block; 0 sizes blocks by
	// traceWords.
	per int
}

// NewTrace applies vectors to p from the flip-flop state state (by DFF
// declaration order; nil is the all-zero reset). Simulate runs the good
// machine, block by block.
func NewTrace(p *gates.Program, state []uint64, vectors [][]uint64) *Trace {
	return &Trace{p: p, state: state, vectors: vectors}
}

// blockCycles returns the number of cycles in each of tr's blocks.
func (tr *Trace) blockCycles() int {
	if tr.per > 0 {
		return tr.per
	}
	return max(1, traceWords/(len(tr.p.Op)+2))
}

// block is the good machine's run over cycles t0..t0+cycles-1: row t
// holds every net of cycle t0+t by position, as settled before the clock
// edge, followed by the two constant nets a pin fault reads (n: all
// zeros, n+1: all ones).
type block struct {
	rows       []uint64
	stride     int
	t0, cycles int
}

func newBlock(p *gates.Program, cycles int) *block {
	stride := len(p.Op) + 2
	return &block{rows: make([]uint64, cycles*stride), stride: stride}
}

// fill runs the good machine sim over vectors, the cycles from t0 on,
// straight into the rows.
func (b *block) fill(sim *Sim, t0 int, vectors [][]uint64) {
	b.t0, b.cycles = t0, len(vectors)
	for t, v := range vectors {
		row := b.row(t)
		sim.evalInto(row, v)
		sim.clock(row)
		row[b.stride-1] = ^uint64(0)
	}
}

// row returns the net words of the block's cycle t.
func (b *block) row(t int) []uint64 { return b.rows[t*b.stride : (t+1)*b.stride] }

// Observe says which output differences detect a fault.
type Observe struct {
	// POs lists the compared primary-output indices; nil compares every
	// output.
	POs []int
	// Mask selects the compared pattern lanes; 0 compares all 64.
	Mask uint64
	// Session runs every cycle and compares only the last one, as a
	// signature check must: a MISR can alias back to the good value, so an
	// earlier difference proves nothing. Otherwise a fault stops at the
	// first cycle whose outputs differ.
	Session bool
}

// Simulate fault-simulates every fault i of flist with skip[i] unset (skip
// may be nil) against the trace, on up to workers goroutines (workers < 1
// means one per CPU). visit(i, cycle, diff) is called once per simulated
// fault, on the goroutine that ran it: cycle is the detecting cycle and
// diff its differing lanes, or -1 and 0 when the fault went undetected.
// Every fault depends only on its index, so callers that write per-index
// slots get identical results at every worker count.
//
// A sequence longer than one block of traceWords runs block by block:
// every fault still running simulates each block in turn, carrying its
// divergent flip-flops from block to block, and is visited in the block
// that settles it. The context is checked before every block and every
// fault in it: on cancellation the faults already visited stay visited
// and the error is ctx.Err(). Simulate returns the gate evaluations
// performed, the good run's included, which are deterministic at every
// worker count.
func (tr *Trace) Simulate(ctx context.Context, flist []fault.Fault, skip []bool, workers int, obs Observe, visit func(i, cycle int, diff uint64)) (int64, error) {
	p := tr.p
	mask := obs.Mask
	if mask == 0 {
		mask = ^uint64(0)
	}
	pos := p.POs
	if obs.POs != nil {
		pos = make([]int32, len(obs.POs))
		for j, k := range obs.POs {
			pos[j] = p.POs[k]
		}
	}
	total := len(tr.vectors)
	per := tr.blockCycles()
	b := newBlock(p, min(per, total))
	sim := New(p)
	sim.SetState(tr.state)
	// carry[i] holds fault i's divergent flip-flops entering the next
	// block and done[i] marks it settled; one block needs neither.
	var carry [][]ffWord
	var done []bool
	if per < total {
		carry, done = make([][]ffWord, len(flist)), make([]bool, len(flist))
	}
	var evals atomic.Int64
	for t0 := 0; ; t0 += per {
		if err := ctx.Err(); err != nil {
			return evals.Load(), err
		}
		b.fill(sim, t0, tr.vectors[t0:min(t0+per, total)])
		evals.Add(int64(len(p.Op)-p.Comb) * int64(b.cycles))
		last := t0+per >= total
		// A session compares the final cycle only.
		from := 0
		if obs.Session {
			from = b.cycles
			if last {
				from--
			}
		}
		err := parallel.ForEachWorkerCtx(ctx, workers, len(flist),
			func() (*faulty, error) { return newFaulty(p), nil },
			func(s *faulty, i int) error {
				if skip != nil && skip[i] || done != nil && done[i] {
					return nil
				}
				var ffs []ffWord
				if carry != nil {
					ffs = carry[i]
				}
				cycle, diff := s.run(&flist[i], b, ffs, pos, mask, from)
				evals.Add(s.evals)
				s.evals = 0
				switch {
				case cycle >= 0:
					if done != nil {
						done[i] = true
					}
					visit(i, b.t0+cycle, diff)
				case last:
					visit(i, -1, 0)
				default:
					carry[i] = append(carry[i][:0], s.ffs...)
				}
				return nil
			})
		if err != nil || last {
			return evals.Load(), err
		}
	}
}

// faulty is one worker's faulty-machine scratch. It keeps the program's
// slices the hot loop reads in its own fields.
type faulty struct {
	p *gates.Program
	// code reads a pin fault's redirected slot from a constant net.
	code      gateCode
	rdOff, rd []int32
	// cur holds every net of the faulty machine this cycle: the good row,
	// overwritten where the faulty machine differs. In a quiet cycle, one
	// with no divergent flip-flop and no active fault site, the faulty
	// machine equals the good one and cur is not even copied.
	cur   []uint64
	quiet bool
	// queue has a bit per position, set for the gates scheduled this
	// cycle; only its words lo..hi may be non-zero.
	queue  []uint64
	lo, hi int
	// The fault: force is the net an output fault holds at stuck, pinFF
	// the flip-flop whose D pin is stuck (pinD its D net) and gate the
	// combinational gate whose pin is (each -1 when unused).
	force, pinFF, pinD, gate int32
	stuck                    uint64
	// ffs holds the flip-flops whose faulty state differs entering this
	// cycle, next those that will entering the next one.
	ffs, next []ffWord
	evals     int64
}

// ffWord is the faulty state of the flip-flop at position q where it
// differs from the good state.
type ffWord struct {
	q int32
	w uint64
}

func newFaulty(p *gates.Program) *faulty {
	n := len(p.Op)
	s := &faulty{
		p:     p,
		code:  gateCode{p.Op, p.InOff, append([]int32(nil), p.In...)},
		rdOff: p.RdOff,
		rd:    p.Rd,
		cur:   make([]uint64, n+2),
		queue: make([]uint64, (n+63)/64),
		hi:    -1,
	}
	s.lo = len(s.queue)
	return s
}

// run simulates fault f over block b, entering it with the divergent
// flip-flops ffs, and returns the block's detecting cycle and the
// differing lanes (-1 and 0 when undetected), comparing the outputs at
// positions pos on the lanes of mask at every cycle from from on. The
// flip-flops that differ leaving the block are left in s.ffs.
func (s *faulty) run(f *fault.Fault, b *block, ffs []ffWord, pos []int32, mask uint64, from int) (int, uint64) {
	slot := s.inject(f)
	defer s.eject(slot)
	s.ffs = append(s.ffs, ffs...)
	for t := 0; t < b.cycles; t++ {
		row := b.row(t)
		s.step(row)
		if s.quiet || t < from {
			continue
		}
		var d uint64
		for _, q := range pos {
			d |= s.cur[q] ^ row[q]
		}
		if d &= mask; d != 0 {
			return t, d
		}
	}
	return -1, 0
}

// inject sets up fault f with no divergent flip-flop and returns the
// redirected fanin slot, -1 when none is. An output fault forces its net;
// a pin fault on a flip-flop forces its next state; a pin fault on a gate
// redirects the pin to a constant net and evaluates the gate every cycle.
func (s *faulty) inject(f *fault.Fault) int32 {
	p := s.p
	s.force, s.pinFF, s.pinD, s.gate = -1, -1, -1, -1
	s.stuck = 0
	if f.Val {
		s.stuck = ^uint64(0)
	}
	s.ffs = s.ffs[:0]
	switch q := p.Pos[f.Gate]; {
	case f.Pin < 0:
		s.force = q
	case p.Op[q] == gates.OpDFF:
		s.pinFF, s.pinD = q, p.In[p.InOff[q]]
	default:
		slot := p.InOff[q] + int32(f.Pin)
		s.gate, s.code.in[slot] = q, int32(len(p.Op))+int32(s.stuck&1)
		return slot
	}
	return -1
}

// eject restores the fanin slot inject redirected.
func (s *faulty) eject(slot int32) {
	if slot >= 0 {
		s.code.in[slot] = s.p.In[slot]
	}
}

// step simulates the faulty machine's next cycle, whose good nets are row,
// and clocks its flip-flops: afterwards cur holds the cycle's faulty nets
// unless the cycle was quiet.
func (s *faulty) step(row []uint64) {
	forced := s.force >= 0 && row[s.force] != s.stuck
	s.next = s.next[:0]
	s.quiet = len(s.ffs) == 0 && !forced && s.gate < 0
	if !s.quiet {
		copy(s.cur, row)
		for _, d := range s.ffs {
			if d.q != s.force {
				s.set(d.q, d.w)
			}
		}
		if forced {
			s.set(s.force, s.stuck)
		}
		if s.gate >= 0 {
			s.schedule(s.gate)
		}
		s.propagate()
	}
	if s.pinFF >= 0 && row[s.pinD] != s.stuck {
		s.next = append(s.next, ffWord{s.pinFF, s.stuck})
	}
	s.ffs, s.next = s.next, s.ffs
}

// set records that net q differs from the good row with faulty word w:
// the combinational gates reading it are scheduled, and the flip-flops
// reading it take w as their next faulty state.
func (s *faulty) set(q int32, w uint64) {
	s.cur[q] = w
	for _, r := range s.rd[s.rdOff[q]:s.rdOff[q+1]] {
		if r >= 0 {
			s.schedule(r)
		} else if ff := ^r; ff != s.pinFF {
			s.next = append(s.next, ffWord{ff, w})
		}
	}
}

// schedule queues the gate at position q.
func (s *faulty) schedule(q int32) {
	w := int(q >> 6)
	s.queue[w] |= 1 << (q & 63)
	s.lo, s.hi = min(s.lo, w), max(s.hi, w)
}

// propagate evaluates the scheduled gates by position. Every gate follows
// the gates it reads, so a gate only ever schedules gates after it and one
// forward sweep over the queue reaches every divergent gate. The gate an
// output fault forces is never evaluated.
func (s *faulty) propagate() {
	for w := s.lo; w <= s.hi; w++ {
		for s.queue[w] != 0 {
			b := bits.TrailingZeros64(s.queue[w])
			s.queue[w] &^= 1 << b
			q := int32(w<<6 | b)
			if q == s.force {
				continue
			}
			s.evals++
			old := s.cur[q]
			s.code.evalRange(s.cur, int(q), int(q)+1)
			if v := s.cur[q]; v != old {
				s.set(q, v)
			}
		}
	}
	s.lo, s.hi = len(s.queue), -1
}

// FaultSimIncrementalWorkers runs serial-fault, parallel-pattern stuck-at
// fault simulation over the still-undetected faults of flist: the good
// circuit is simulated once over the vector sequence from reset, then each
// fault with detected[i] unset is simulated until its outputs diverge from
// the good circuit (fault dropping) or the vectors are exhausted.
// vectors[t] holds one 64-bit word per primary input; all 64 pattern lanes
// are compared, so a caller can pack 64 independent test sequences into
// one campaign (lane l of every word forms sequence l).
//
// detected is updated in place and the number of newly detected faults is
// returned; when detectCycle is non-nil, detectCycle[i] receives
// cycleBase plus the cycle of first detection. The fault list is
// partitioned across up to `workers` goroutines (workers < 1 means one
// per CPU); every fault touches only its own slots, so the update is
// race-free and the outcome is bit-identical at every worker count.
func FaultSimIncrementalWorkers(c *gates.Circuit, flist []fault.Fault, detected []bool, detectCycle []int, vectors [][]uint64, cycleBase, workers int) (int, error) {
	return exec.Guard1("logicsim.faultsim", -1, func() (int, error) {
		p, err := c.Compile()
		if err != nil {
			return 0, err
		}
		newlyOf := make([]bool, len(flist))
		_, err = NewTrace(p, nil, vectors).Simulate(context.Background(), flist, detected, workers, Observe{},
			func(i, cycle int, _ uint64) {
				if cycle < 0 {
					return
				}
				detected[i], newlyOf[i] = true, true
				if detectCycle != nil {
					detectCycle[i] = cycleBase + cycle
				}
			})
		newly := 0
		for _, b := range newlyOf {
			if b {
				newly++
			}
		}
		return newly, err
	})
}
