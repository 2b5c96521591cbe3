// Package sched implements operation scheduling for high-level synthesis:
// ASAP/ALAP analysis, latency- and binding-constrained list scheduling, the
// force-directed scheduler of Paulin and Knight [11] (the paper's Approach
// 1 baseline), the mobility-path scheduler of Lee et al. [6,7] (Approach
// 2), and the merge-sort rescheduling transformation of paper §4.3 that
// realizes the scheduling constraints imposed by module and register
// mergers.
//
// All operations are unit-delay: an operation scheduled in control step s
// reads its operands during s and writes its result at the end of s, so a
// data-dependent operation must be scheduled at step s+1 or later.
package sched

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/dfg"
)

// Schedule assigns each operation node a control step, 1-based.
type Schedule struct {
	// Step is indexed by dfg.NodeID; 0 means unscheduled.
	Step []int
	Len  int // number of control steps (max assigned step)
}

// Clone returns a deep copy of the schedule.
func (s Schedule) Clone() Schedule {
	return Schedule{Step: slices.Clone(s.Step), Len: s.Len}
}

// OpsAt returns the nodes scheduled at the given step, ascending by id.
func (s Schedule) OpsAt(step int) []dfg.NodeID {
	var out []dfg.NodeID
	for n, st := range s.Step {
		if st == step {
			out = append(out, dfg.NodeID(n))
		}
	}
	return out
}

// Problem is a scheduling problem: the data-flow graph, extra precedence
// arcs added by the synthesis transformations (merge-sort orders and
// lifetime-disjointness arcs), a module binding (operations bound to the
// same module must occupy distinct control steps), and an optional latency
// bound.
type Problem struct {
	G *dfg.Graph
	// Extra lists additional precedence arcs: Extra[i][0] must be scheduled
	// strictly before Extra[i][1].
	Extra [][2]dfg.NodeID
	// ExtraWeak lists same-step-permitting arcs: ExtraWeak[i][0] must be
	// scheduled no later than ExtraWeak[i][1]. They realize the
	// read-then-overwrite register sharing pattern, where a value may die
	// in the very step its successor is written.
	ExtraWeak [][2]dfg.NodeID
	// ModuleOf is indexed by dfg.NodeID and binds operations to modules;
	// operations sharing a module id must be scheduled in pairwise distinct
	// steps. -1 marks an unbound operation.
	ModuleOf []int
	// MaxLen bounds the schedule length; 0 means unbounded.
	MaxLen int
}

// NewProblem returns an unconstrained problem over g.
func NewProblem(g *dfg.Graph) *Problem {
	mod := make([]int, g.NumNodes())
	for i := range mod {
		mod[i] = -1
	}
	return &Problem{G: g, ModuleOf: mod}
}

// Clone returns a deep copy of the problem (sharing the graph).
func (p *Problem) Clone() *Problem {
	c := &Problem{G: p.G, MaxLen: p.MaxLen, ModuleOf: slices.Clone(p.ModuleOf)}
	c.Extra = append(c.Extra, p.Extra...)
	c.ExtraWeak = append(c.ExtraWeak, p.ExtraWeak...)
	return c
}

// compiled is a Problem flattened into int32 CSR adjacency. pred lists
// each node's strict predecessors — its data-flow predecessors ascending,
// then Extra sources in arc order, each kept at its first occurrence —
// and wpred its weak (ExtraWeak) ones; strict and weak lists are
// deduplicated separately, so a pair joined by both a strict and a weak
// arc counts once in each. The successor lists come in two layers: layer
// 0 is the transpose of pred and wpred, and layer 1 holds the arcs one
// overlay solve adds on top of them (sched.Base), in arc order with
// repeats kept; it is empty otherwise. deg is every node's strict plus
// weak indegree over both layers. mod holds a dense module index per
// node, -1 when unbound. The kernels below return slices of w, valid
// until the next kernel call on c.
type compiled struct {
	nn          int
	pred, wpred adj
	succ, wsucc [2]adj
	deg         []int32
	mod         []int32
	nmod        int
	w           work
}

// adj is one CSR adjacency: node n's list is list[off[n]:off[n+1]].
type adj struct{ off, list []int32 }

func (a adj) at(n int32) []int32 { return a.list[a.off[n]:a.off[n+1]] }

// outs returns all of a node's successors: the strict ones of layers 0
// and 1, then the weak ones of layers 0 and 1.
func (c *compiled) outs(n int32) [4][]int32 {
	return [4][]int32{c.succ[0].at(n), c.succ[1].at(n), c.wsucc[0].at(n), c.wsucc[1].at(n)}
}

// work holds the kernels' scratch buffers. A one-off solve starts from the
// zero value; a Base keeps one across its overlay solves, so those
// allocate nothing but the schedule List returns.
type work struct {
	deg, order, ready, avail      []int32
	early, late, bound, used, ids []int
}

// zeroed returns buf resized to n zero elements, reallocating only when
// its capacity is short.
func zeroed[T int | int32](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// compile builds the CSR form of p, with an empty layer 1.
func (p *Problem) compile() *compiled {
	nn := p.G.NumNodes()
	c := &compiled{nn: nn}
	c.pred = predCSR(p.G, p.Extra, true)
	c.wpred = predCSR(p.G, p.ExtraWeak, false)
	c.succ[0] = transpose(nn, c.pred)
	c.wsucc[0] = transpose(nn, c.wpred)
	none := adj{off: make([]int32, nn+1)}
	c.succ[1], c.wsucc[1] = none, none
	c.deg = make([]int32, nn)
	for n := range c.deg {
		c.deg[n] = c.pred.off[n+1] - c.pred.off[n] + c.wpred.off[n+1] - c.wpred.off[n]
	}
	c.mod, c.w.ids, c.nmod = denseModules(p.ModuleOf, nn, nil, nil)
	return c
}

// predCSR lists, for every node, its data-flow predecessors (when
// dataFlow is set; the defining nodes of its operands, ascending) followed
// by the sources of arcs into it in arc order, keeping each predecessor at
// its first occurrence.
func predCSR(g *dfg.Graph, arcs [][2]dfg.NodeID, dataFlow bool) adj {
	nn := g.NumNodes()
	stamp := make([]int32, nn) // stamp[q] == n+1: q already listed for n
	in := bucket(arcs, 1, nn, adj{})
	off := make([]int32, nn+1)
	list := make([]int32, 0, len(arcs)+2*nn)
	for n := 0; n < nn; n++ {
		mark := int32(n + 1)
		if dataFlow {
			start := len(list)
			for _, v := range g.Node(dfg.NodeID(n)).In {
				d := g.Value(v).Def
				if d != dfg.NoNode && stamp[d] != mark {
					stamp[d] = mark
					list = append(list, int32(d))
				}
			}
			slices.Sort(list[start:])
		}
		for _, q := range in.at(int32(n)) {
			if stamp[q] != mark {
				stamp[q] = mark
				list = append(list, q)
			}
		}
		off[n+1] = int32(len(list))
	}
	return adj{off, list}
}

// bucket lists every arc x's other end x[1-key] under node x[key], in arc
// order, reusing a's buffers.
func bucket(arcs [][2]dfg.NodeID, key, nn int, a adj) adj {
	off := zeroed(a.off, nn+1)
	for _, x := range arcs {
		off[x[key]]++
	}
	for n := 1; n <= nn; n++ {
		off[n] += off[n-1] // off[n] is now the end of n's list
	}
	list := zeroed(a.list, len(arcs))
	for i := len(arcs) - 1; i >= 0; i-- {
		n := arcs[i][key]
		off[n]--
		list[off[n]] = int32(arcs[i][1-key])
	}
	return adj{off, list}
}

// transpose inverts a CSR adjacency: q appears in the output list of p
// exactly as often as p appears in the input list of q.
func transpose(nn int, a adj) adj {
	toff := make([]int32, nn+1)
	for _, q := range a.list {
		toff[q+1]++
	}
	for i := 0; i < nn; i++ {
		toff[i+1] += toff[i]
	}
	tlist := make([]int32, len(a.list))
	fill := slices.Clone(toff[:nn])
	for n := int32(0); n < int32(nn); n++ {
		for _, q := range a.at(n) {
			tlist[fill[q]] = n
			fill[q]++
		}
	}
	return adj{toff, tlist}
}

// denseModules maps the module binding onto indices 0..nmod-1 (ascending
// module id), -1 for unbound nodes, in the buffers mod and ids.
func denseModules(moduleOf []int, nn int, mod []int32, ids []int) ([]int32, []int, int) {
	mod = zeroed(mod, nn)
	ids = ids[:0]
	for _, m := range moduleOf {
		if m >= 0 {
			ids = append(ids, m)
		}
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)
	for n := range mod {
		mod[n] = -1
		if m := moduleOf[n]; m >= 0 {
			i, _ := slices.BinarySearch(ids, m)
			mod[n] = int32(i)
		}
	}
	return mod, ids, len(ids)
}

// indegree returns a copy of deg for a kernel to count down.
func (c *compiled) indegree() []int32 {
	c.w.deg = append(c.w.deg[:0], c.deg...)
	return c.w.deg
}

var errCycle = errors.New("sched: precedence arcs form a cycle")

// latencyError is List's error when the schedule cannot fit MaxLen. It is
// a small integer, so returning it allocates nothing.
type latencyError int

func (e latencyError) Error() string {
	return fmt.Sprintf("sched: latency bound %d exceeded", int(e))
}

// kahn runs Kahn's algorithm first in, first out, relaxing the
// as-soon-as-possible steps forward along the arcs. It returns the
// topological order, the ASAP steps and the schedule length, or errCycle.
// Every topological order yields the same ASAP steps (and ALAP steps), so
// no heap is needed.
func (c *compiled) kahn() ([]int32, []int, int, error) {
	deg := c.indegree()
	step := zeroed(c.w.early, c.nn)
	queue := c.w.order[:0]
	for n, d := range deg {
		if d == 0 {
			queue = append(queue, int32(n))
		}
	}
	length := 0
	for i := 0; i < len(queue); i++ {
		n := queue[i]
		st := max(step[n], 1)
		step[n] = st
		length = max(length, st)
		for k, out := range c.outs(n) {
			next := st
			if k < 2 {
				next++ // strict successors go a step later
			}
			for _, q := range out {
				step[q] = max(step[q], next)
				if deg[q]--; deg[q] == 0 {
					queue = append(queue, q)
				}
			}
		}
	}
	c.w.early, c.w.order = step, queue
	if len(queue) != c.nn {
		return nil, nil, 0, errCycle
	}
	return queue, step, length, nil
}

// topo returns a topological order over data-flow plus extra arcs (weak
// arcs included as ordering edges), always releasing the smallest ready
// id first, or an error if the arcs introduced a cycle. FDS and
// MobilityPath walk this order: it fixes which node their frame errors
// name.
func (c *compiled) topo() ([]int32, error) {
	indeg := c.indegree()
	var h minHeap
	for n, d := range indeg {
		if d == 0 {
			h.push(int32(n))
		}
	}
	order := make([]int32, 0, c.nn)
	for len(h) > 0 {
		n := h.pop()
		order = append(order, n)
		for _, out := range c.outs(n) {
			for _, s := range out {
				if indeg[s]--; indeg[s] == 0 {
					h.push(s)
				}
			}
		}
	}
	if len(order) != c.nn {
		return nil, errCycle
	}
	return order, nil
}

// minHeap is a binary min-heap of node ids.
type minHeap []int32

func (h *minHeap) push(x int32) {
	a := append(*h, x)
	for i := len(a) - 1; i > 0; {
		parent := (i - 1) / 2
		if a[parent] <= a[i] {
			break
		}
		a[parent], a[i] = a[i], a[parent]
		i = parent
	}
	*h = a
}

func (h *minHeap) pop() int32 {
	a := *h
	top := a[0]
	last := len(a) - 1
	a[0] = a[last]
	a = a[:last]
	for i := 0; ; {
		l, small := 2*i+1, i
		if l < len(a) && a[l] < a[small] {
			small = l
		}
		if r := l + 1; r < len(a) && a[r] < a[small] {
			small = r
		}
		if small == i {
			break
		}
		a[i], a[small] = a[small], a[i]
		i = small
	}
	*h = a
	return top
}

// alap fills the as-late-as-possible steps for the given latency along the
// reverse of order.
func (c *compiled) alap(order []int32, latency int) ([]int, error) {
	step := zeroed(c.w.late, c.nn)
	c.w.late = step
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		st := latency
		for k, out := range c.outs(n) {
			gap := 0
			if k < 2 {
				gap = 1 // strict successors go a step later
			}
			for _, q := range out {
				st = min(st, step[q]-gap)
			}
		}
		if st < 1 {
			return nil, fmt.Errorf("sched: latency %d infeasible", latency)
		}
		step[n] = st
	}
	return step, nil
}

// ASAP returns the as-soon-as-possible schedule under precedence (data-flow
// plus extra arcs), ignoring module binding and latency.
func (p *Problem) ASAP() (Schedule, error) {
	_, step, length, err := p.compile().kahn()
	if err != nil {
		return Schedule{}, err
	}
	return Schedule{Step: step, Len: length}, nil
}

// List performs critical-path list scheduling honouring precedence, the
// module binding (one operation per module per step), and MaxLen: among
// ready operations, the one with the earlier ALAP step (at the ASAP
// length) goes first, ties by node id. It returns an error if MaxLen is
// exceeded or the arcs are cyclic.
func (p *Problem) List() (Schedule, error) {
	return p.compile().list(p.MaxLen)
}

// list is List over c under the latency bound maxLen (0 for none).
func (c *compiled) list(maxLen int) (Schedule, error) {
	order, _, length, err := c.kahn()
	if err != nil {
		return Schedule{}, err
	}
	prio, err := c.alap(order, length)
	if err != nil {
		return Schedule{}, err
	}
	nn := c.nn
	s := Schedule{Step: make([]int, nn)}
	step := s.Step
	remaining := c.indegree()
	ready, avail := c.w.ready[:0], c.w.avail[:0]
	for n, d := range remaining {
		if d == 0 {
			ready = append(ready, int32(n))
		}
	}
	// bound[n] is the earliest step n's placed predecessors allow: a step
	// after each strict one, the step of each weak one. Once n is ready,
	// every predecessor is placed and n is placeable from step bound[n].
	bound := zeroed(c.w.bound, nn)
	c.w.bound = bound
	// usedAt[m] is the last step module m was taken in.
	usedAt := zeroed(c.w.used, c.nmod)
	c.w.used = usedAt
	byPriority := func(a, b int32) int {
		if prio[a] != prio[b] {
			return prio[a] - prio[b]
		}
		return int(a - b)
	}
	scheduled := 0
	for cur := 1; scheduled < nn; cur++ {
		if maxLen > 0 && cur > maxLen {
			c.w.ready, c.w.avail = ready, avail
			return Schedule{}, latencyError(maxLen)
		}
		// Schedule within the step until a fixpoint: weak-arc successors of
		// an operation placed this step may become placeable in the same
		// step. An operation chosen this step has step == cur.
		for {
			avail = avail[:0]
			for _, n := range ready {
				if step[n] != cur && bound[n] <= cur {
					avail = append(avail, n)
				}
			}
			slices.SortFunc(avail, byPriority)
			progress := false
			for _, n := range avail {
				if m := c.mod[n]; m >= 0 {
					if usedAt[m] == cur {
						continue
					}
					usedAt[m] = cur
				}
				step[n] = cur
				s.Len = cur
				progress = true
				scheduled++
				for k, out := range c.outs(n) {
					next := cur
					if k < 2 {
						next++
					}
					for _, q := range out {
						bound[q] = max(bound[q], next)
						if remaining[q]--; remaining[q] == 0 {
							ready = append(ready, q)
						}
					}
				}
			}
			if !progress {
				break
			}
		}
		next := ready[:0]
		for _, n := range ready {
			if step[n] != cur {
				next = append(next, n)
			}
		}
		ready = next
	}
	c.w.ready, c.w.avail = ready, avail
	return s, nil
}

// Base is a problem compiled once and frozen as the shared base of many
// overlay solves. Each solve adds a few strict and weak arcs — and, in
// List, its own module binding — without copying or recompiling the
// problem: the merger loop freezes the committed design's problem once per
// iteration and decides every candidate merge order against it. A Base
// reuses its scratch across solves, so one goroutine at a time may use it,
// and the frozen Problem's arcs must not change while it does.
type Base struct {
	maxLen int
	deg    []int32   // the frozen problem's indegree
	view   *compiled // the frozen problem plus the current solve's arcs
}

// Freeze compiles p as the base of overlay solves.
func (p *Problem) Freeze() *Base {
	c := p.compile()
	b := &Base{maxLen: p.MaxLen, deg: c.deg, view: c}
	// The overlay gets buffers of its own: compile shares one empty
	// layer 1 between both successor sides.
	c.succ[1], c.wsucc[1], c.deg = adj{}, adj{}, nil
	return b
}

// Check returns the error List would return for the base plus the strict
// and weak arcs when that error is already decided before list
// scheduling, and nil otherwise: it runs only List's first pass, kahn. A
// rejection is sound: a cycle fails List's topological sort, and List
// places every operation no earlier than its ASAP step, so an ASAP length
// above MaxLen fails List's latency bound. A nil result proves nothing:
// module clashes can still push List past MaxLen.
func (b *Base) Check(strict, weak [][2]dfg.NodeID) error {
	_, _, length, err := b.overlay(strict, weak).kahn()
	if err == nil && b.maxLen > 0 && length > b.maxLen {
		err = latencyError(b.maxLen)
	}
	return err
}

// List list-schedules the base plus the strict and weak arcs under the
// module binding moduleOf (indexed by dfg.NodeID, -1 unbound). The result
// is the one Problem.List returns on a clone of the frozen problem with
// the arcs appended to Extra and ExtraWeak and ModuleOf replaced by
// moduleOf, error string included.
func (b *Base) List(strict, weak [][2]dfg.NodeID, moduleOf []int) (Schedule, error) {
	c := b.overlay(strict, weak)
	c.mod, c.w.ids, c.nmod = denseModules(moduleOf, c.nn, c.mod, c.w.ids)
	return c.list(b.maxLen)
}

// overlay sets the view's layer 1 to strict and weak and counts them into
// its indegree; pred and wpred stay the frozen problem's, and no kernel
// of an overlay solve reads them. List cannot tell the result from a
// recompiled problem, although the extra arcs come after every compiled
// one and repeats are kept. The order kahn visits nodes in does depend on
// the arc order, but the ASAP and ALAP steps, like list's bound, are max
// and min folds that every topological order agrees on; and list sorts
// everything placeable on every pass, so the order of its ready list
// cannot move a schedule, and a repeated arc counts down in the same step
// as its twin.
func (b *Base) overlay(strict, weak [][2]dfg.NodeID) *compiled {
	c := b.view
	c.succ[1] = bucket(strict, 0, c.nn, c.succ[1])
	c.wsucc[1] = bucket(weak, 0, c.nn, c.wsucc[1])
	c.deg = append(c.deg[:0], b.deg...)
	for _, arcs := range [2][][2]dfg.NodeID{strict, weak} {
		for _, a := range arcs {
			c.deg[a[1]]++
		}
	}
	return c
}

// Verify checks that s satisfies the problem: every node scheduled, all
// precedence arcs respected with unit delay, module binding honoured, and
// latency within MaxLen. Violations are reported for the lowest node id
// first, so the same schedule always yields the same message.
func (p *Problem) Verify(s Schedule) error {
	c := p.compile()
	step := make([]int, c.nn)
	copy(step, s.Step)
	name := func(q int32) string { return p.G.Node(dfg.NodeID(q)).Name }
	for _, n := range p.G.Nodes() {
		st := step[n.ID]
		if st == 0 {
			return fmt.Errorf("sched: node %s unscheduled", n.Name)
		}
		if st < 1 {
			return fmt.Errorf("sched: node %s at invalid step %d", n.Name, st)
		}
		if p.MaxLen > 0 && st > p.MaxLen {
			return fmt.Errorf("sched: node %s at step %d exceeds latency %d", n.Name, st, p.MaxLen)
		}
		for _, q := range c.pred.at(int32(n.ID)) {
			if step[q] >= st {
				return fmt.Errorf("sched: node %s at step %d not after predecessor %s at step %d",
					n.Name, st, name(q), step[q])
			}
		}
		for _, q := range c.wpred.at(int32(n.ID)) {
			if step[q] > st {
				return fmt.Errorf("sched: node %s at step %d before weak predecessor %s at step %d",
					n.Name, st, name(q), step[q])
			}
		}
	}
	atStep := map[[2]int]dfg.NodeID{} // (module, step) -> node
	for _, n := range p.G.Nodes() {
		m := p.ModuleOf[n.ID]
		if m < 0 {
			continue
		}
		key := [2]int{m, step[n.ID]}
		if other, clash := atStep[key]; clash {
			return fmt.Errorf("sched: nodes %s and %s share module %d at step %d",
				n.Name, p.G.Node(other).Name, m, step[n.ID])
		}
		atStep[key] = n.ID
	}
	return nil
}

// String renders the schedule step by step.
func (s Schedule) String(g *dfg.Graph) string {
	var b []byte
	for step := 1; step <= s.Len; step++ {
		b = append(b, fmt.Sprintf("step %2d:", step)...)
		for _, n := range s.OpsAt(step) {
			nd := g.Node(n)
			b = append(b, fmt.Sprintf(" %s(%s)", nd.Name, nd.Kind)...)
		}
		b = append(b, '\n')
	}
	return string(b)
}
