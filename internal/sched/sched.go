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
	"fmt"
	"maps"
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
	// ModuleOf binds operations to modules; operations sharing a module id
	// must be scheduled in pairwise distinct steps. Unbound operations may
	// be omitted.
	ModuleOf map[dfg.NodeID]int
	// MaxLen bounds the schedule length; 0 means unbounded.
	MaxLen int
}

// NewProblem returns an unconstrained problem over g.
func NewProblem(g *dfg.Graph) *Problem {
	return &Problem{G: g, ModuleOf: map[dfg.NodeID]int{}}
}

// Clone returns a deep copy of the problem (sharing the graph).
func (p *Problem) Clone() *Problem {
	c := &Problem{G: p.G, MaxLen: p.MaxLen, ModuleOf: maps.Clone(p.ModuleOf)}
	if c.ModuleOf == nil {
		c.ModuleOf = map[dfg.NodeID]int{}
	}
	c.Extra = append(c.Extra, p.Extra...)
	c.ExtraWeak = append(c.ExtraWeak, p.ExtraWeak...)
	return c
}

// compiled is a Problem flattened once per solve into int32 CSR adjacency:
// node n's strict predecessors are pred[predOff[n]:predOff[n+1]] — its
// data-flow predecessors ascending, then Extra sources in arc order, each
// kept at its first occurrence — and likewise for strict successors and
// the weak (ExtraWeak) arcs. Strict and weak lists are deduplicated
// separately, so a pair joined by both a strict and a weak arc counts once
// in each. mod holds a dense module index per node, -1 when unbound.
type compiled struct {
	nn              int
	predOff, pred   []int32
	succOff, succ   []int32
	wpredOff, wpred []int32
	wsuccOff, wsucc []int32
	mod             []int32
	nmod            int
}

func (c *compiled) preds(n int32) []int32  { return c.pred[c.predOff[n]:c.predOff[n+1]] }
func (c *compiled) succs(n int32) []int32  { return c.succ[c.succOff[n]:c.succOff[n+1]] }
func (c *compiled) wpreds(n int32) []int32 { return c.wpred[c.wpredOff[n]:c.wpredOff[n+1]] }
func (c *compiled) wsuccs(n int32) []int32 { return c.wsucc[c.wsuccOff[n]:c.wsuccOff[n+1]] }

// compile builds the CSR form of p.
func (p *Problem) compile() *compiled {
	nn := p.G.NumNodes()
	c := &compiled{nn: nn}
	c.predOff, c.pred = predCSR(p.G, p.Extra, true)
	c.wpredOff, c.wpred = predCSR(p.G, p.ExtraWeak, false)
	c.succOff, c.succ = transpose(nn, c.predOff, c.pred)
	c.wsuccOff, c.wsucc = transpose(nn, c.wpredOff, c.wpred)
	c.mod, c.nmod = denseModules(p.ModuleOf, nn)
	return c
}

// predCSR lists, for every node, its data-flow predecessors (when
// dataFlow is set; the defining nodes of its operands, ascending) followed
// by the sources of arcs into it in arc order, keeping each predecessor at
// its first occurrence.
func predCSR(g *dfg.Graph, arcs [][2]dfg.NodeID, dataFlow bool) (off, list []int32) {
	nn := g.NumNodes()
	stamp := make([]int32, nn) // stamp[q] == n+1: q already listed for n
	// Bucket the arcs by destination, stably.
	aoff := make([]int32, nn+1)
	for _, a := range arcs {
		aoff[a[1]+1]++
	}
	for i := 0; i < nn; i++ {
		aoff[i+1] += aoff[i]
	}
	bucket := make([]int32, len(arcs))
	fill := slices.Clone(aoff[:nn])
	for _, a := range arcs {
		bucket[fill[a[1]]] = int32(a[0])
		fill[a[1]]++
	}
	off = make([]int32, nn+1)
	list = make([]int32, 0, len(arcs)+2*nn)
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
		for _, q := range bucket[aoff[n]:aoff[n+1]] {
			if stamp[q] != mark {
				stamp[q] = mark
				list = append(list, q)
			}
		}
		off[n+1] = int32(len(list))
	}
	return off, list
}

// transpose inverts a CSR adjacency: q appears in the output list of p
// exactly as often as p appears in the input list of q.
func transpose(nn int, off, list []int32) (toff, tlist []int32) {
	toff = make([]int32, nn+1)
	for _, q := range list {
		toff[q+1]++
	}
	for i := 0; i < nn; i++ {
		toff[i+1] += toff[i]
	}
	tlist = make([]int32, len(list))
	fill := slices.Clone(toff[:nn])
	for n := 0; n < nn; n++ {
		for _, q := range list[off[n]:off[n+1]] {
			tlist[fill[q]] = int32(n)
			fill[q]++
		}
	}
	return toff, tlist
}

// denseModules maps the module binding onto indices 0..nmod-1 (ascending
// module id), -1 for unbound nodes.
func denseModules(moduleOf map[dfg.NodeID]int, nn int) ([]int32, int) {
	mod := make([]int32, nn)
	ids := make([]int, 0, len(moduleOf))
	for n := 0; n < nn; n++ {
		if m, ok := moduleOf[dfg.NodeID(n)]; ok {
			ids = append(ids, m)
		}
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)
	for n := 0; n < nn; n++ {
		mod[n] = -1
		if m, ok := moduleOf[dfg.NodeID(n)]; ok {
			i, _ := slices.BinarySearch(ids, m)
			mod[n] = int32(i)
		}
	}
	return mod, len(ids)
}

// indegree returns every node's strict plus weak predecessor count.
func (c *compiled) indegree() []int32 {
	deg := make([]int32, c.nn)
	for n := range deg {
		deg[n] = c.predOff[n+1] - c.predOff[n] + c.wpredOff[n+1] - c.wpredOff[n]
	}
	return deg
}

// topo returns a topological order over data-flow plus extra arcs (weak
// arcs included as ordering edges), always releasing the smallest ready
// id first, or an error if the arcs introduced a cycle.
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
		for _, s := range c.succs(n) {
			if indeg[s]--; indeg[s] == 0 {
				h.push(s)
			}
		}
		for _, s := range c.wsuccs(n) {
			if indeg[s]--; indeg[s] == 0 {
				h.push(s)
			}
		}
	}
	if len(order) != c.nn {
		return nil, fmt.Errorf("sched: precedence arcs form a cycle")
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

// asap fills the as-soon-as-possible steps along order and returns the
// schedule length.
func (c *compiled) asap(order []int32) ([]int, int) {
	step := make([]int, c.nn)
	length := 0
	for _, n := range order {
		st := 1
		for _, q := range c.preds(n) {
			if step[q]+1 > st {
				st = step[q] + 1
			}
		}
		for _, q := range c.wpreds(n) {
			if step[q] > st {
				st = step[q]
			}
		}
		step[n] = st
		if st > length {
			length = st
		}
	}
	return step, length
}

// alap fills the as-late-as-possible steps for the given latency along the
// reverse of order.
func (c *compiled) alap(order []int32, latency int) ([]int, error) {
	step := make([]int, c.nn)
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		st := latency
		for _, q := range c.succs(n) {
			if step[q]-1 < st {
				st = step[q] - 1
			}
		}
		for _, q := range c.wsuccs(n) {
			if step[q] < st {
				st = step[q]
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
	c := p.compile()
	order, err := c.topo()
	if err != nil {
		return Schedule{}, err
	}
	step, length := c.asap(order)
	return Schedule{Step: step, Len: length}, nil
}

// ALAP returns the as-late-as-possible schedule for the given latency.
func (p *Problem) ALAP(latency int) (Schedule, error) {
	c := p.compile()
	order, err := c.topo()
	if err != nil {
		return Schedule{}, err
	}
	step, err := c.alap(order, latency)
	if err != nil {
		return Schedule{}, err
	}
	return Schedule{Step: step, Len: latency}, nil
}

// List performs critical-path list scheduling honouring precedence, the
// module binding (one operation per module per step), and MaxLen: among
// ready operations, the one with the earlier ALAP step (at the ASAP
// length) goes first, ties by node id. It returns an error if MaxLen is
// exceeded or the arcs are cyclic.
func (p *Problem) List() (Schedule, error) {
	c := p.compile()
	order, err := c.topo()
	if err != nil {
		return Schedule{}, err
	}
	_, length := c.asap(order)
	prio, err := c.alap(order, length)
	if err != nil {
		return Schedule{}, err
	}
	nn := c.nn
	s := Schedule{Step: make([]int, nn)}
	step := s.Step
	remaining := c.indegree()
	var ready, avail []int32
	for n, d := range remaining {
		if d == 0 {
			ready = append(ready, int32(n))
		}
	}
	// usedAt[m] is the last step module m was taken in.
	usedAt := make([]int, c.nmod)
	byPriority := func(a, b int32) int {
		if prio[a] != prio[b] {
			return prio[a] - prio[b]
		}
		return int(a - b)
	}
	scheduled := 0
	for cur := 1; scheduled < nn; cur++ {
		if p.MaxLen > 0 && cur > p.MaxLen {
			return Schedule{}, fmt.Errorf("sched: latency bound %d exceeded", p.MaxLen)
		}
		// Schedule within the step until a fixpoint: weak-arc successors of
		// an operation placed this step may become placeable in the same
		// step. An operation chosen this step has step == cur.
		for {
			// Ready ops whose strict predecessors finished before cur and
			// whose weak predecessors are placed no later than cur.
			avail = avail[:0]
			for _, n := range ready {
				if step[n] == cur {
					continue
				}
				ok := true
				for _, q := range c.preds(n) {
					if st := step[q]; st == 0 || st >= cur {
						ok = false
						break
					}
				}
				for _, q := range c.wpreds(n) {
					if st := step[q]; st == 0 || st > cur {
						ok = false
						break
					}
				}
				if ok {
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
				for _, q := range c.succs(n) {
					if remaining[q]--; remaining[q] == 0 {
						ready = append(ready, q)
					}
				}
				for _, q := range c.wsuccs(n) {
					if remaining[q]--; remaining[q] == 0 {
						ready = append(ready, q)
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
	return s, nil
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
		for _, q := range c.preds(int32(n.ID)) {
			if step[q] >= st {
				return fmt.Errorf("sched: node %s at step %d not after predecessor %s at step %d",
					n.Name, st, name(q), step[q])
			}
		}
		for _, q := range c.wpreds(int32(n.ID)) {
			if step[q] > st {
				return fmt.Errorf("sched: node %s at step %d before weak predecessor %s at step %d",
					n.Name, st, name(q), step[q])
			}
		}
	}
	atStep := map[[2]int]dfg.NodeID{} // (module, step) -> node
	for _, n := range p.G.Nodes() {
		m, bound := p.ModuleOf[n.ID]
		if !bound {
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
