package sched

import (
	"fmt"
	"sort"

	"repro/internal/dfg"
)

// ClassFunc maps operation kinds to module classes for the purpose of
// resource sharing and distribution graphs: operations in the same class
// compete for the same kind of functional unit.
type ClassFunc func(dfg.OpKind) string

// ExactClass shares modules only between identical operation kinds — the
// binding discipline visible in the paper's Tables 1-3 for Approaches 1, 2
// and Ours (multipliers hold only multiplications, subtracters only
// subtractions, and so on).
func ExactClass(k dfg.OpKind) string { return k.String() }

// ALUClass pools addition, subtraction and comparison into one
// adder/subtracter ALU class, as the CAMAD rows of the tables do (their
// "±" modules), while multiplications keep a dedicated class.
func ALUClass(k dfg.OpKind) string {
	switch k {
	case dfg.OpAdd, dfg.OpSub, dfg.OpLt, dfg.OpGt, dfg.OpEq:
		return "±"
	case dfg.OpMul:
		return "*"
	default:
		return "logic"
	}
}

// framesWithFixed computes [ASAP, ALAP] frames for every node under the
// compiled precedence arcs (order is their topological order), a latency
// bound, and a set of already-fixed assignments (fixed[n] == 0: free). It
// reads layer 0 of the successors only: FDS and MobilityPath compile their
// problem and never overlay it.
func (p *Problem) framesWithFixed(c *compiled, order []int32, latency int, fixed []int) (asap, alap []int, err error) {
	name := func(n int32) string { return p.G.Node(dfg.NodeID(n)).Name }
	asap = make([]int, c.nn)
	for _, n := range order {
		st := 1
		for _, q := range c.pred.at(n) {
			st = max(st, asap[q]+1)
		}
		for _, q := range c.wpred.at(n) {
			st = max(st, asap[q])
		}
		if f := fixed[n]; f != 0 {
			if f < st {
				return nil, nil, fmt.Errorf("sched: fixing %s at %d violates precedence (asap %d)", name(n), f, st)
			}
			st = f
		}
		if st > latency {
			return nil, nil, fmt.Errorf("sched: latency %d infeasible", latency)
		}
		asap[n] = st
	}
	alap = make([]int, c.nn)
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		st := latency
		for _, q := range c.succ[0].at(n) {
			st = min(st, alap[q]-1)
		}
		for _, q := range c.wsucc[0].at(n) {
			st = min(st, alap[q])
		}
		if f := fixed[n]; f != 0 {
			if f > st {
				return nil, nil, fmt.Errorf("sched: fixing %s at %d violates successors (alap %d)", name(n), f, st)
			}
			st = f
		}
		if st < asap[n] {
			return nil, nil, fmt.Errorf("sched: empty frame for %s", name(n))
		}
		alap[n] = st
	}
	return asap, alap, nil
}

// distributionCost computes the force-directed balancing objective: the sum
// over module classes and control steps of the squared distribution-graph
// value, where each unfixed operation spreads probability 1/|frame| over
// its frame. Lower is a flatter, more shareable schedule.
func (p *Problem) distributionCost(latency int, class ClassFunc, asap, alap []int) float64 {
	dg := map[string][]float64{}
	for _, n := range p.G.Nodes() {
		c := class(n.Kind)
		row := dg[c]
		if row == nil {
			row = make([]float64, latency+1)
			dg[c] = row
		}
		lo, hi := asap[n.ID], alap[n.ID]
		pr := 1.0 / float64(hi-lo+1)
		for s := lo; s <= hi; s++ {
			row[s] += pr
		}
	}
	// Sum classes in sorted order: float addition is not associative, so
	// iterating the map directly would let Go's randomized map order
	// perturb the cost in its last ulp and flip near-tie comparisons in
	// FDS from run to run.
	classes := make([]string, 0, len(dg))
	for c := range dg {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	cost := 0.0
	for _, c := range classes {
		for _, v := range dg[c] {
			cost += float64(v * v) // rounded: no fused multiply-add (DESIGN.md §3a)
		}
	}
	return cost
}

// FDS is the force-directed scheduler of Paulin and Knight [11], in the
// equivalent sum-of-squares balancing formulation: repeatedly commit the
// (operation, step) assignment that minimizes the global distribution-graph
// cost, recomputing every operation's time frame after each commitment.
// The schedule meets the given latency exactly or an error is returned.
func (p *Problem) FDS(latency int, class ClassFunc) (Schedule, error) {
	if class == nil {
		class = ExactClass
	}
	c := p.compile()
	order, err := c.topo()
	if err != nil {
		return Schedule{}, err
	}
	fixed := make([]int, c.nn)
	nfixed := 0
	for nfixed < c.nn {
		before := nfixed
		asap, alap, err := p.framesWithFixed(c, order, latency, fixed)
		if err != nil {
			return Schedule{}, err
		}
		// Commit every zero-mobility operation outright: its placement is
		// forced and carries no force of its own.
		for n := range fixed {
			if fixed[n] == 0 && asap[n] == alap[n] {
				fixed[n] = asap[n]
				nfixed++
			}
		}
		if nfixed == c.nn {
			break
		}
		if nfixed != before {
			continue // frames changed; recompute before evaluating forces
		}
		bestCost := 0.0
		bestNode := dfg.NoNode
		bestStep := 0
		first := true
		for n := range fixed {
			if fixed[n] != 0 {
				continue
			}
			for s := asap[n]; s <= alap[n]; s++ {
				fixed[n] = s
				a2, l2, err := p.framesWithFixed(c, order, latency, fixed)
				fixed[n] = 0
				if err != nil {
					continue
				}
				cost := p.distributionCost(latency, class, a2, l2)
				if first || cost < bestCost {
					first = false
					bestCost = cost
					bestNode = dfg.NodeID(n)
					bestStep = s
				}
			}
		}
		if bestNode == dfg.NoNode {
			return Schedule{}, fmt.Errorf("sched: FDS made no progress")
		}
		fixed[bestNode] = bestStep
		nfixed++
	}
	s := Schedule{Step: fixed}
	for _, st := range fixed {
		s.Len = max(s.Len, st)
	}
	if err := p.Verify(s); err != nil {
		return Schedule{}, err
	}
	return s, nil
}

// MobilityPath is the testability-oriented scheduler of Lee et al. [6,7]
// (the paper's Approach 2), reconstructed from its two published rules:
// operations are processed along mobility paths (least-mobile, most
// critical first) and placed at the step in their current frame that best
// balances per-class concurrency, with ties broken to execute operations
// reading primary-input variables as early as possible and operations
// producing primary-output variables as late as possible — shortening the
// sequential depth from controllable to observable registers (rule SR1).
func (p *Problem) MobilityPath(latency int, class ClassFunc) (Schedule, error) {
	if class == nil {
		class = ExactClass
	}
	c := p.compile()
	order, err := c.topo()
	if err != nil {
		return Schedule{}, err
	}
	fixed := make([]int, c.nn)
	asap0, alap0, err := p.framesWithFixed(c, order, latency, fixed)
	if err != nil {
		return Schedule{}, err
	}
	nodes := append([]*dfg.Node(nil), p.G.Nodes()...)
	sort.Slice(nodes, func(i, j int) bool {
		mi := alap0[nodes[i].ID] - asap0[nodes[i].ID]
		mj := alap0[nodes[j].ID] - asap0[nodes[j].ID]
		if mi != mj {
			return mi < mj
		}
		if asap0[nodes[i].ID] != asap0[nodes[j].ID] {
			return asap0[nodes[i].ID] < asap0[nodes[j].ID]
		}
		return nodes[i].ID < nodes[j].ID
	})
	usage := map[string][]int{} // class -> per-step committed count
	for _, n := range nodes {
		asap, alap, err := p.framesWithFixed(c, order, latency, fixed)
		if err != nil {
			return Schedule{}, err
		}
		cl := class(n.Kind)
		row := usage[cl]
		if row == nil {
			row = make([]int, latency+1)
			usage[cl] = row
		}
		readsPI := false
		for _, v := range n.In {
			if p.G.Value(v).Kind == dfg.ValInput {
				readsPI = true
			}
		}
		writesPO := p.G.Value(n.Out).IsOutput
		bestStep, bestKey := 0, [3]int{1 << 30, 0, 0}
		for s := asap[n.ID]; s <= alap[n.ID]; s++ {
			// Primary criterion: per-class concurrency at s. Secondary:
			// PI-readers early, PO-writers late, others early.
			dir := s
			if writesPO && !readsPI {
				dir = -s
			}
			key := [3]int{row[s], dir, int(n.ID)}
			if s == asap[n.ID] || key[0] < bestKey[0] || (key[0] == bestKey[0] && key[1] < bestKey[1]) {
				bestStep, bestKey = s, key
			}
		}
		fixed[n.ID] = bestStep
		row[bestStep]++
	}
	s := Schedule{Step: fixed}
	for _, st := range fixed {
		s.Len = max(s.Len, st)
	}
	if err := p.Verify(s); err != nil {
		return Schedule{}, err
	}
	return s, nil
}
