// Package atpg implements automatic test pattern generation for
// synchronous gate-level netlists under the single stuck-at fault model:
// a random phase (bit-parallel sequential fault simulation with fault
// dropping) followed by a deterministic phase (PODEM over time-frame
// expansion). The paper's evaluation metrics — fault coverage, test
// generation time and test application cycles — are produced by the
// campaign in campaign.go.
package atpg

import (
	"math/bits"
	"math/rand"

	"repro/internal/fault"
	"repro/internal/gates"
)

// Three-valued logic values.
const (
	v0 int8 = 0
	v1 int8 = 1
	vX int8 = 2
)

func inv3(v int8) int8 {
	switch v {
	case v0:
		return v1
	case v1:
		return v0
	}
	return vX
}

// PODEM evaluates the good and the faulty circuit together in dual-rail
// form: one byte per net and frame, lane 0 the good circuit and lane 1 the
// faulty one. A lane is 1 when its "one" bit is set, 0 when its "zero" bit
// is set and X when neither is, so AND is the AND of the one bits and the
// OR of the zero bits, NOT swaps the rails, and both lanes evaluate in
// one pass.
const (
	goodOne  uint8 = 1
	badOne   uint8 = 2
	goodZero uint8 = 4
	badZero  uint8 = 8

	ones    = goodOne | badOne   // both lanes 1
	zeros   = goodZero | badZero // both lanes 0
	goodBit = goodOne | goodZero // the good lane is binary
	badBit  = badOne | badZero   // the faulty lane is binary
)

// rail spreads a three-valued value over both lanes.
func rail(v int8) uint8 {
	switch v {
	case v0:
		return zeros
	case v1:
		return ones
	}
	return 0
}

// good returns the good lane of a dual-rail value.
func good(r uint8) int8 {
	switch {
	case r&goodOne != 0:
		return v1
	case r&goodZero != 0:
		return v0
	}
	return vX
}

// isD reports whether a dual-rail value carries a fault effect: both
// lanes binary and different (D or D-bar).
func isD(r uint8) bool { return r == goodOne|badZero || r == goodZero|badOne }

// swap complements both lanes.
func swap(r uint8) uint8 { return (r<<2 | r>>2) & (ones | zeros) }

// eval2 evaluates a combinational opcode in dual rail over vals, the net
// values of one frame.
func eval2(op gates.Op, vals []uint8, ins []int32) uint8 {
	switch op {
	case gates.OpConst0:
		return zeros
	case gates.OpConst1:
		return ones
	case gates.OpBuf:
		return vals[ins[0]]
	case gates.OpNot:
		return swap(vals[ins[0]])
	case gates.OpAnd, gates.OpNand:
		one, zero := ones, uint8(0)
		for _, in := range ins {
			one &= vals[in]
			zero |= vals[in]
		}
		r := one&ones | zero&zeros
		if op == gates.OpNand {
			r = swap(r)
		}
		return r
	case gates.OpOr, gates.OpNor:
		one, zero := uint8(0), zeros
		for _, in := range ins {
			one |= vals[in]
			zero &= vals[in]
		}
		r := one&ones | zero&zeros
		if op == gates.OpNor {
			r = swap(r)
		}
		return r
	case gates.OpXor, gates.OpXnor:
		a, b := vals[ins[0]], vals[ins[1]]
		a1, a0, b1, b0 := a&ones, a>>2, b&ones, b>>2
		r := a1&b0 | a0&b1 | (a1&b1|a0&b0)<<2
		if op == gates.OpXnor {
			r = swap(r)
		}
		return r
	}
	return 0
}

// searcher is one worker's PODEM state over a compiled program: the good
// and faulty circuits over up to maxFrames time frames, frame 0 starting
// from the all-zero reset state. It is sized once and reused by every
// search the worker runs. Nets and gates are numbered by program
// position.
//
// Implication is event-driven. Every search starts from a copy of the
// fault-free circuit with every input X and schedules the faulted gate in
// each frame; after that a changed primary input schedules its gate.
// simulate re-evaluates only the forward cone of the scheduled gates,
// frame by frame and in levelized order, stopping wherever neither lane
// changes. A changed D net schedules its flip-flops in the next frame.
// Since no state survives from one search to the next, a search's result
// and its evaluation count depend only on its own arguments.
type searcher struct {
	p      *gates.Program
	frames int
	rng    *rand.Rand
	// The fault: fgate is its gate and fpin its pin (-1 for the output);
	// stuck is the stuck value and force the faulty-lane bit that
	// imposes it. A pin fault on a combinational gate reads its pin
	// through fins, the gate's fanin with the faulted slot redirected to
	// the frame's extra net n, which holds the driving net's good lane
	// and the stuck value.
	fgate, fpin int32
	stuck       int8
	force       uint8
	fins        []int32
	// pi[t][k] is the assigned value of primary input k in frame t.
	pi [][]int8
	// val[t*m+g] is net g of frame t in dual rail (m = n+1 nets per frame,
	// the last being the redirect net) and base the fault-free values with
	// every input X; queued marks a gate pending in its frame.
	val, base []uint8
	m         int
	queued    []bool
	// pend[t] holds the gates scheduled in frame t from outside it (the
	// faulted gate, inputs, flip-flops); npend counts them over all frames.
	pend  [][]int32
	npend int
	// sched has a bit per position, set for the current frame's scheduled
	// gates; only its words lo..hi may be non-zero.
	sched  []uint64
	lo, hi int
	// dnet[t] lists the nets of frame t carrying a fault effect, dpos[t*m+g]
	// is g's index in it (-1 when absent), and poD[t] counts the primary
	// outputs among them.
	dnet [][]int32
	dpos []int32
	poD  []int
	// stack is the decision stack; xs is backtrace scratch.
	stack []decision
	xs    []int32
	// trail logs every value simulate changes while a decision is on the
	// stack, so a backtrack restores the values instead of re-simulating.
	trail []change
	// implications counts nominal full-resimulation gate evaluations
	// (frames x gates per implication step), the campaign's Effort unit;
	// evals counts the evaluations simulate actually performs.
	implications int64
	evals        int64
}

// decision is one PODEM decision: a primary input assigned in a frame.
// mark is the trail length when it was pushed: restoring the trail to it
// undoes the decision's implication and everything implied after it.
type decision struct {
	pi, frame int
	val       int8
	flipped   bool
	mark      int
}

// change is one trail entry: net of frame held old before simulate
// changed it.
type change struct {
	net   int32
	frame int16
	old   uint8
}

func newSearcher(p *gates.Program, maxFrames int) *searcher {
	m := len(p.Op) + 1
	s := &searcher{
		p:      p,
		m:      m,
		pi:     make([][]int8, maxFrames),
		val:    make([]uint8, maxFrames*m),
		queued: make([]bool, maxFrames*m),
		pend:   make([][]int32, maxFrames),
		sched:  make([]uint64, (m+63)/64),
		lo:     (m + 63) / 64,
		hi:     -1,
		dnet:   make([][]int32, maxFrames),
		dpos:   make([]int32, maxFrames*m),
		poD:    make([]int, maxFrames),
	}
	for t := range s.pi {
		s.pi[t] = make([]int8, len(p.PIs))
		for k := range s.pi[t] {
			s.pi[t][k] = vX
		}
	}
	for i := range s.dpos {
		s.dpos[i] = -1
	}
	for t := 0; t < maxFrames; t++ {
		vals := s.val[t*m : (t+1)*m]
		for q := int32(0); q < int32(len(p.Op)); q++ {
			vals[q] = s.eval(t, vals, q, p.Fanin(q))
		}
	}
	s.base = append([]uint8(nil), s.val...)
	return s
}

// reset starts a search for flt over the given number of frames with
// every primary input unassigned.
func (s *searcher) reset(flt fault.Fault, frames int, rng *rand.Rand) {
	p := s.p
	s.frames, s.rng = frames, rng
	s.fgate, s.fpin = p.Pos[flt.Gate], int32(flt.Pin)
	s.stuck, s.force = v0, badZero
	if flt.Val {
		s.stuck, s.force = v1, badOne
	}
	s.fins = s.fins[:0]
	if s.fpin >= 0 {
		s.fins = append(s.fins, p.Fanin(s.fgate)...)
		s.fins[s.fpin] = int32(s.m - 1)
	}
	for t := 0; t < frames; t++ {
		for k := range s.pi[t] {
			s.pi[t][k] = vX
		}
	}
	copy(s.val, s.base[:frames*s.m])
	for t, l := range s.dnet {
		for _, q := range l {
			s.dpos[t*s.m+int(q)] = -1
		}
		s.dnet[t], s.poD[t] = l[:0], 0
	}
	// A search that ended between a decision and its implication leaves
	// gates pending.
	for t, qs := range s.pend {
		for _, q := range qs {
			s.queued[t*s.m+int(q)] = false
		}
		s.pend[t] = qs[:0]
	}
	s.npend = 0
	s.stack, s.trail = s.stack[:0], s.trail[:0]
	for t := 0; t < frames; t++ {
		s.schedulePend(t, s.fgate)
	}
	s.implications, s.evals = 0, 0
}

// setPI assigns primary input k in frame t and schedules its gate.
func (s *searcher) setPI(t, k int, v int8) {
	s.pi[t][k] = v
	s.schedulePend(t, s.p.PIs[k])
}

func (s *searcher) schedulePend(t int, q int32) {
	if i := t*s.m + int(q); !s.queued[i] {
		s.queued[i] = true
		s.pend[t] = append(s.pend[t], q)
		s.npend++
	}
}

// schedule queues the gate at position q in the current frame.
func (s *searcher) schedule(q int32) {
	w := int(q >> 6)
	s.sched[w] |= 1 << (q & 63)
	s.lo, s.hi = min(s.lo, w), max(s.hi, w)
}

// simulate brings both circuits up to date with the current primary
// input assignment. Whatever it re-evaluates, it charges the nominal
// frames x gates of a full resimulation to implications. Within a frame
// the scheduled gates are swept by position, where every gate follows the
// gates it reads, so a gate only ever schedules gates after it. While a
// decision is on the stack it logs every change to the trail.
func (s *searcher) simulate() {
	p := s.p
	n := len(p.Op)
	s.implications += int64(s.frames) * int64(n)
	for t := 0; t < s.frames && s.npend > 0; t++ {
		base := t * s.m
		vals := s.val[base : base+s.m]
		for _, q := range s.pend[t] {
			s.queued[base+int(q)] = false
			s.schedule(q)
		}
		s.npend -= len(s.pend[t])
		s.pend[t] = s.pend[t][:0]
		for w := s.lo; w <= s.hi; w++ {
			for s.sched[w] != 0 {
				b := bits.TrailingZeros64(s.sched[w])
				s.sched[w] &^= 1 << b
				q := int32(w<<6 | b)
				s.evals++
				var r uint8
				if q != s.fgate {
					r = s.eval(t, vals, q, p.Fanin(q))
				} else {
					r = s.evalFaulted(t, vals, q)
				}
				old := vals[q]
				if r == old {
					continue
				}
				if wasD := isD(old); wasD != isD(r) {
					s.toggleD(t, q, !wasD)
				}
				if len(s.stack) > 0 {
					s.trail = append(s.trail, change{q, int16(t), old})
				}
				vals[q] = r
				for _, rd := range p.Readers(q) {
					if rd >= 0 {
						s.schedule(rd)
					} else if t+1 < s.frames {
						s.schedulePend(t+1, ^rd)
					}
				}
			}
		}
		s.lo, s.hi = len(s.sched), -1
	}
}

// undo restores every value the trail logged after mark, newest first,
// keeping the D lists in step; the values are then exactly those simulate
// gave before the changes, as they are a pure function of the primary
// input assignment. A pin fault's redirect nets are recomputed from their
// restored driving nets.
func (s *searcher) undo(mark int) {
	for j := len(s.trail) - 1; j >= mark; j-- {
		c := s.trail[j]
		i := int(c.frame)*s.m + int(c.net)
		if isD(s.val[i]) != isD(c.old) {
			s.toggleD(int(c.frame), c.net, isD(c.old))
		}
		s.val[i] = c.old
	}
	s.trail = s.trail[:mark]
	if s.fpin >= 0 && s.p.Op[s.fgate] != gates.OpDFF {
		in := int(s.p.Fanin(s.fgate)[s.fpin])
		for t := 0; t < s.frames; t++ {
			vals := s.val[t*s.m : (t+1)*s.m]
			vals[s.m-1] = vals[in]&^badBit | s.force
		}
	}
}

// eval computes the gate at position q of frame t, whose nets are vals,
// reading its fanin through ins.
func (s *searcher) eval(t int, vals []uint8, q int32, ins []int32) uint8 {
	p := s.p
	switch op := p.Op[q]; op {
	case gates.OpInput:
		return rail(s.pi[t][p.PIIx[q]])
	case gates.OpDFF:
		if t == 0 {
			return zeros // reset state
		}
		// Q in frame t is D of frame t-1.
		return s.val[(t-1)*s.m+int(ins[0])]
	default:
		return eval2(op, vals, ins)
	}
}

// evalFaulted computes the faulted gate: the faulty lane of its output,
// or of its faulted pin, is forced to the stuck value.
func (s *searcher) evalFaulted(t int, vals []uint8, q int32) uint8 {
	p := s.p
	ins := p.Fanin(q)
	switch {
	case s.fpin < 0, p.Op[q] == gates.OpDFF && t > 0:
		return s.eval(t, vals, q, ins)&^badBit | s.force
	case p.Op[q] == gates.OpDFF:
		return zeros // the reset state ignores the D pin
	}
	vals[s.m-1] = vals[ins[s.fpin]]&^badBit | s.force
	return s.eval(t, vals, q, s.fins)
}

// toggleD adds the net at position q of frame t to, or removes it from,
// the frame's D list.
func (s *searcher) toggleD(t int, q int32, on bool) {
	i := t*s.m + int(q)
	l := s.dnet[t]
	if on {
		s.dpos[i] = int32(len(l))
		s.dnet[t] = append(l, q)
	} else {
		j, last := s.dpos[i], l[len(l)-1]
		l[j] = last
		s.dpos[t*s.m+int(last)] = j
		s.dnet[t] = l[:len(l)-1]
		s.dpos[i] = -1
	}
	if s.p.ObsDist[q] == 0 { // a primary output
		if on {
			s.poD[t]++
		} else {
			s.poD[t]--
		}
	}
}

// detected reports whether any primary output in any frame shows a binary
// good/bad difference.
func (s *searcher) detected() bool {
	for t := 0; t < s.frames; t++ {
		if s.poD[t] > 0 {
			return true
		}
	}
	return false
}

// siteNet returns the net whose good value determines fault activation:
// the gate's output for output faults, the driving net for pin faults.
func (s *searcher) siteNet() int {
	if s.fpin < 0 {
		return int(s.fgate)
	}
	return int(s.p.Fanin(s.fgate)[s.fpin])
}

// goodAt returns the good value of the net at position q in frame t.
func (s *searcher) goodAt(t, q int) int8 { return good(s.val[t*s.m+q]) }

// activated reports whether the fault is excited in some frame (the good
// value at the fault site is the complement of the stuck value), and
// whether excitation has become impossible (the site is bound to the
// stuck value in every frame).
func (s *searcher) activated() (bool, bool) {
	site := s.siteNet()
	conflict := true
	for t := 0; t < s.frames; t++ {
		g := s.goodAt(t, site)
		if g != vX && g != s.stuck {
			return true, false
		}
		if g == vX {
			conflict = false
		}
	}
	return false, conflict
}

// frontier reports whether the gate at position q is on the D-frontier of
// frame t: a combinational gate with an X output (good or faulty) and a
// fault effect on some input pin.
func (s *searcher) frontier(t int, q int32) bool {
	p := s.p
	if p.Op[q].Source() {
		return false
	}
	vals := s.val[t*s.m : (t+1)*s.m]
	if r := vals[q]; r&goodBit != 0 && r&badBit != 0 {
		return false
	}
	ins := p.Fanin(q)
	if q == s.fgate && s.fpin >= 0 {
		ins = s.fins // the faulted pin reads the stuck value
	}
	for _, in := range ins {
		if isD(vals[in]) {
			return true
		}
	}
	return false
}

// objective returns a (gate, frame, value) goal for the good circuit, or
// ok=false when no useful objective exists (D-frontier empty).
func (s *searcher) objective() (gate, frame int, val int8, ok bool) {
	p := s.p
	// Activation first: make the good value at the fault site the
	// complement of the stuck value.
	if act, _ := s.activated(); !act {
		return s.excite()
	}
	// Propagation: among all D-frontier gates pick the one statically
	// closest to a primary output and set one of its X inputs to the
	// non-controlling value. A frontier gate reads a D net of its frame or
	// is the gate whose input pin is faulted, so only those are scanned.
	// Ties go to the smallest (frame, position), which makes the choice
	// independent of the order the D lists happen to hold.
	best, bestFrame := int32(-1), -1
	bestDist := int32(1 << 30)
	consider := func(t int, q int32) {
		d := p.ObsDist[q]
		if d > bestDist || d == bestDist && (t > bestFrame || t == bestFrame && q >= best) {
			return
		}
		if s.frontier(t, q) {
			best, bestFrame, bestDist = q, t, d
		}
	}
	for t := 0; t < s.frames; t++ {
		for _, net := range s.dnet[t] {
			for _, r := range p.Readers(net) {
				if r >= 0 { // a flip-flop is never on the frontier
					consider(t, r)
				}
			}
		}
		if s.fpin >= 0 {
			consider(t, s.fgate)
		}
	}
	if best < 0 {
		// No D-frontier: the excited frames are masked. Re-excite the
		// fault in another frame whose site is still unjustified — a
		// register fault may be observable only in a frame the first
		// excitation cannot reach.
		return s.excite()
	}
	nc, has := nonControlling(p.Op[best])
	for _, in := range p.Fanin(best) {
		if s.goodAt(bestFrame, int(in)) == vX {
			if has {
				return int(in), bestFrame, nc, true
			}
			return int(in), bestFrame, v0, true // XOR-ish: either value works
		}
	}
	return 0, 0, 0, false
}

// excite returns the objective of justifying the complement of the stuck
// value at the fault site in the first frame where the site is still X.
func (s *searcher) excite() (gate, frame int, val int8, ok bool) {
	site := s.siteNet()
	for t := 0; t < s.frames; t++ {
		if s.goodAt(t, site) == vX {
			return site, t, inv3(s.stuck), true
		}
	}
	return 0, 0, 0, false
}

// nonControlling returns the value an input must take so as not to mask
// the other inputs.
func nonControlling(op gates.Op) (int8, bool) {
	switch op {
	case gates.OpAnd, gates.OpNand:
		return v1, true
	case gates.OpOr, gates.OpNor:
		return v0, true
	default:
		return vX, false
	}
}

// backtrace walks an objective back to an unassigned primary input,
// following X-valued paths in the good circuit and accounting for
// inversions. It returns ok=false when every path dead-ends (e.g. into
// the frame-0 reset state or a constant).
func (s *searcher) backtrace(gate, frame int, val int8) (pi, piFrame int, piVal int8, ok bool) {
	p := s.p
	q, t, v := int32(gate), frame, val
	for depth := 0; depth < len(p.Op)*s.frames+8; depth++ {
		switch p.Op[q] {
		case gates.OpInput:
			k := int(p.PIIx[q])
			if s.pi[t][k] != vX {
				return 0, 0, 0, false // already bound; path dead
			}
			return k, t, v, true
		case gates.OpConst0, gates.OpConst1:
			return 0, 0, 0, false
		case gates.OpDFF:
			if t == 0 {
				return 0, 0, 0, false // reset state is fixed
			}
			q, t = p.Fanin(q)[0], t-1
			continue
		case gates.OpNot, gates.OpNand, gates.OpNor, gates.OpXnor:
			v = inv3(v)
		}
		// Choose an X input to pursue; randomizing the choice across
		// restarts diversifies the search.
		xs := s.xs[:0]
		for _, in := range p.Fanin(q) {
			if s.goodAt(t, int(in)) == vX {
				xs = append(xs, in)
			}
		}
		s.xs = xs
		if len(xs) == 0 {
			return 0, 0, 0, false
		}
		next := xs[0]
		if s.rng != nil && len(xs) > 1 {
			next = xs[s.rng.Intn(len(xs))]
		}
		// For XOR-like gates the required input value is unconstrained
		// (other inputs may be known); any binary value can work. Keep v
		// as the heuristic target.
		q = next
		if v == vX {
			v = v0
		}
	}
	return 0, 0, 0, false
}

// podemResult is the outcome of a deterministic test-generation attempt.
type podemResult struct {
	Success      bool
	Aborted      bool // backtrack limit hit: fault not proven untestable
	Vectors      [][]int8
	Implications int64 // nominal: frames x gates per implication step
	Backtracks   int
	GateEvals    int64 // gate evaluations simulate actually performed
}

// podem runs PODEM for one fault over the given number of time frames
// (at most the searcher's maxFrames), with a backtrack limit. A non-nil
// rng randomizes backtrace path and value choices, which lets a caller
// escape unproductive search regions by restarting. On success, Vectors
// holds one PI assignment per frame (X entries are don't-cares).
func (s *searcher) podem(flt fault.Fault, frames, backtrackLimit int, rng *rand.Rand) *podemResult {
	s.reset(flt, frames, rng)
	res := &podemResult{}
	done := func() *podemResult {
		res.Implications, res.GateEvals = s.implications, s.evals
		return res
	}
	for {
		s.simulate()
		if s.detected() {
			res.Success = true
			res.Vectors = make([][]int8, frames)
			for t := range res.Vectors {
				res.Vectors[t] = append([]int8(nil), s.pi[t]...)
			}
			return done()
		}
		_, conflict := s.activated()
		var gate, frame int
		var val int8
		objOK := false
		if !conflict {
			gate, frame, val, objOK = s.objective()
		}
		advanced := false
		if objOK {
			if pi, pf, pv, ok := s.backtrace(gate, frame, val); ok {
				s.setPI(pf, pi, pv)
				s.stack = append(s.stack, decision{pi, pf, pv, false, len(s.trail)})
				advanced = true
			}
		}
		if advanced {
			continue
		}
		// Backtrack: release flipped decisions, whose values the next undo
		// restores, then flip the newest unflipped one and imply only the
		// flipped value.
		for {
			if len(s.stack) == 0 {
				res.Backtracks++
				return done() // exhausted: untestable within frames
			}
			top := &s.stack[len(s.stack)-1]
			if !top.flipped {
				s.undo(top.mark)
				top.flipped = true
				top.val = inv3(top.val)
				s.setPI(top.frame, top.pi, top.val)
				res.Backtracks++
				break
			}
			s.pi[top.frame][top.pi] = vX
			s.stack = s.stack[:len(s.stack)-1]
		}
		if res.Backtracks > backtrackLimit {
			res.Aborted = true
			return done()
		}
	}
}
