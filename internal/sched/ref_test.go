package sched

import (
	"fmt"
	"sort"

	"repro/internal/dfg"
)

// This file keeps the map-based scheduler that the compiled CSR kernels
// replaced, verbatim apart from names, as the reference the differential
// tests in diff_test.go compare against.

// refSchedule is the reference's schedule: absent nodes are unscheduled.
type refSchedule struct {
	Step map[dfg.NodeID]int
	Len  int
}

// refPreds returns data-flow plus extra predecessors of n (deduplicated).
func (p *Problem) refPreds(n dfg.NodeID) []dfg.NodeID {
	out := p.G.Preds(n)
	seen := map[dfg.NodeID]bool{}
	for _, x := range out {
		seen[x] = true
	}
	for _, e := range p.Extra {
		if e[1] == n && !seen[e[0]] {
			seen[e[0]] = true
			out = append(out, e[0])
		}
	}
	return out
}

// refSuccs returns data-flow plus extra successors of n (deduplicated).
func (p *Problem) refSuccs(n dfg.NodeID) []dfg.NodeID {
	out := p.G.Succs(n)
	seen := map[dfg.NodeID]bool{}
	for _, x := range out {
		seen[x] = true
	}
	for _, e := range p.Extra {
		if e[0] == n && !seen[e[1]] {
			seen[e[1]] = true
			out = append(out, e[1])
		}
	}
	return out
}

// refWeakPreds returns the weak (no-later-than) predecessors of n,
// deduplicated.
func (p *Problem) refWeakPreds(n dfg.NodeID) []dfg.NodeID {
	seen := map[dfg.NodeID]bool{}
	var out []dfg.NodeID
	for _, e := range p.ExtraWeak {
		if e[1] == n && !seen[e[0]] {
			seen[e[0]] = true
			out = append(out, e[0])
		}
	}
	return out
}

// refWeakSuccs returns the weak successors of n, deduplicated.
func (p *Problem) refWeakSuccs(n dfg.NodeID) []dfg.NodeID {
	seen := map[dfg.NodeID]bool{}
	var out []dfg.NodeID
	for _, e := range p.ExtraWeak {
		if e[0] == n && !seen[e[1]] {
			seen[e[1]] = true
			out = append(out, e[1])
		}
	}
	return out
}

// refTopo returns a topological order over data-flow plus extra arcs (weak
// arcs included as ordering edges), or an error if the arcs introduced a
// cycle.
func (p *Problem) refTopo() ([]dfg.NodeID, error) {
	nn := p.G.NumNodes()
	indeg := make([]int, nn)
	for i := 0; i < nn; i++ {
		indeg[i] = len(p.refPreds(dfg.NodeID(i))) + len(p.refWeakPreds(dfg.NodeID(i)))
	}
	var queue []dfg.NodeID
	for i := 0; i < nn; i++ {
		if indeg[i] == 0 {
			queue = append(queue, dfg.NodeID(i))
		}
	}
	var order []dfg.NodeID
	for len(queue) > 0 {
		sort.Slice(queue, func(i, j int) bool { return queue[i] < queue[j] })
		n := queue[0]
		queue = queue[1:]
		order = append(order, n)
		for _, s := range p.refSuccs(n) {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
		for _, s := range p.refWeakSuccs(n) {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if len(order) != nn {
		return nil, fmt.Errorf("sched: precedence arcs form a cycle")
	}
	return order, nil
}

// refASAP returns the as-soon-as-possible schedule under precedence
// (data-flow plus extra arcs), ignoring module binding and latency.
func (p *Problem) refASAP() (refSchedule, error) {
	order, err := p.refTopo()
	if err != nil {
		return refSchedule{}, err
	}
	s := refSchedule{Step: map[dfg.NodeID]int{}}
	for _, n := range order {
		step := 1
		for _, q := range p.refPreds(n) {
			if s.Step[q]+1 > step {
				step = s.Step[q] + 1
			}
		}
		for _, q := range p.refWeakPreds(n) {
			if s.Step[q] > step {
				step = s.Step[q]
			}
		}
		s.Step[n] = step
		if step > s.Len {
			s.Len = step
		}
	}
	return s, nil
}

// refALAP returns the as-late-as-possible schedule for the given latency.
func (p *Problem) refALAP(latency int) (refSchedule, error) {
	order, err := p.refTopo()
	if err != nil {
		return refSchedule{}, err
	}
	s := refSchedule{Step: map[dfg.NodeID]int{}, Len: latency}
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		step := latency
		for _, q := range p.refSuccs(n) {
			if s.Step[q]-1 < step {
				step = s.Step[q] - 1
			}
		}
		for _, q := range p.refWeakSuccs(n) {
			if s.Step[q] < step {
				step = s.Step[q]
			}
		}
		if step < 1 {
			return refSchedule{}, fmt.Errorf("sched: latency %d infeasible", latency)
		}
		s.Step[n] = step
	}
	return s, nil
}

// refList is the reference list scheduler with its critical-path (ALAP)
// priority.
func (p *Problem) refList() (refSchedule, error) {
	order, err := p.refTopo()
	if err != nil {
		return refSchedule{}, err
	}
	// Critical-path priority: earlier ALAP step first.
	asap, err := p.refASAP()
	if err != nil {
		return refSchedule{}, err
	}
	alap, err := p.refALAP(asap.Len)
	if err != nil {
		return refSchedule{}, err
	}
	priority := make(map[dfg.NodeID]float64, len(alap.Step))
	for n, st := range alap.Step {
		priority[n] = float64(st)
	}
	_ = order
	s := refSchedule{Step: map[dfg.NodeID]int{}}
	nn := p.G.NumNodes()
	remainingPreds := make([]int, nn)
	for i := 0; i < nn; i++ {
		remainingPreds[i] = len(p.refPreds(dfg.NodeID(i))) + len(p.refWeakPreds(dfg.NodeID(i)))
	}
	var ready []dfg.NodeID
	for i := 0; i < nn; i++ {
		if remainingPreds[i] == 0 {
			ready = append(ready, dfg.NodeID(i))
		}
	}
	scheduled := 0
	for step := 1; scheduled < nn; step++ {
		if p.MaxLen > 0 && step > p.MaxLen {
			return refSchedule{}, fmt.Errorf("sched: latency bound %d exceeded", p.MaxLen)
		}
		usedModule := map[int]bool{}
		chosen := map[dfg.NodeID]bool{}
		var stillReady []dfg.NodeID
		for {
			var avail []dfg.NodeID
			for _, n := range ready {
				if chosen[n] {
					continue
				}
				ok := true
				for _, q := range p.refPreds(n) {
					if st, done := s.Step[q]; !done || st >= step {
						ok = false
						break
					}
				}
				for _, q := range p.refWeakPreds(n) {
					if st, done := s.Step[q]; !done || st > step {
						ok = false
						break
					}
				}
				if ok {
					avail = append(avail, n)
				}
			}
			sort.Slice(avail, func(i, j int) bool {
				pi, pj := priority[avail[i]], priority[avail[j]]
				if pi != pj {
					return pi < pj
				}
				return avail[i] < avail[j]
			})
			progress := false
			for _, n := range avail {
				if m := p.ModuleOf[n]; m >= 0 {
					if usedModule[m] {
						continue
					}
					usedModule[m] = true
				}
				s.Step[n] = step
				if step > s.Len {
					s.Len = step
				}
				chosen[n] = true
				progress = true
				scheduled++
				for _, q := range p.refSuccs(n) {
					remainingPreds[q]--
					if remainingPreds[q] == 0 {
						stillReady = append(stillReady, q)
					}
				}
				for _, q := range p.refWeakSuccs(n) {
					remainingPreds[q]--
					if remainingPreds[q] == 0 {
						stillReady = append(stillReady, q)
					}
				}
			}
			ready = append(ready, stillReady...)
			stillReady = nil
			if !progress {
				break
			}
		}
		var nextReady []dfg.NodeID
		for _, n := range ready {
			if !chosen[n] {
				nextReady = append(nextReady, n)
			}
		}
		ready = nextReady
	}
	return s, nil
}

// refFramesWithFixed computes [ASAP, ALAP] frames for every node under the
// problem's precedence arcs, a latency bound, and a set of already-fixed
// assignments.
func (p *Problem) refFramesWithFixed(latency int, fixed map[dfg.NodeID]int) (asap, alap map[dfg.NodeID]int, err error) {
	order, err := p.refTopo()
	if err != nil {
		return nil, nil, err
	}
	asap = make(map[dfg.NodeID]int, len(order))
	for _, n := range order {
		st := 1
		for _, q := range p.refPreds(n) {
			if asap[q]+1 > st {
				st = asap[q] + 1
			}
		}
		for _, q := range p.refWeakPreds(n) {
			if asap[q] > st {
				st = asap[q]
			}
		}
		if f, ok := fixed[n]; ok {
			if f < st {
				return nil, nil, fmt.Errorf("sched: fixing %s at %d violates precedence (asap %d)", p.G.Node(n).Name, f, st)
			}
			st = f
		}
		if st > latency {
			return nil, nil, fmt.Errorf("sched: latency %d infeasible", latency)
		}
		asap[n] = st
	}
	alap = make(map[dfg.NodeID]int, len(order))
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		st := latency
		for _, q := range p.refSuccs(n) {
			if alap[q]-1 < st {
				st = alap[q] - 1
			}
		}
		for _, q := range p.refWeakSuccs(n) {
			if alap[q] < st {
				st = alap[q]
			}
		}
		if f, ok := fixed[n]; ok {
			if f > st {
				return nil, nil, fmt.Errorf("sched: fixing %s at %d violates successors (alap %d)", p.G.Node(n).Name, f, st)
			}
			st = f
		}
		if st < asap[n] {
			return nil, nil, fmt.Errorf("sched: empty frame for %s", p.G.Node(n).Name)
		}
		alap[n] = st
	}
	return asap, alap, nil
}
