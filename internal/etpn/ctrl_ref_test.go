package etpn

// This file keeps the timed Petri-net engine that ExecutionTime's closed
// form replaced, as the reference TestExecutionTimeMatchesReference
// compares against. It is cut down to what the execution time needed: the
// chain and loop control parts Build used to construct, timed execution
// under maximal-step semantics, and the critical-path search over guard
// policies. Firing rules, step counting and policies are the engine's.

import (
	"fmt"
	"sort"
)

// RefExecutionTime exports the reference to the external differential
// test, which needs the synthesis core to reach final designs.
var RefExecutionTime = refExecutionTime

// refExecutionTime is the replaced ExecutionTime: it builds the control
// part Build used to attach to d and searches its critical path.
func refExecutionTime(d *Design, loopBound int) (int, error) {
	net := refChain(d.Sched.Len)
	if d.LoopSignal != "" {
		net = refLoop(d.Sched.Len, d.LoopSignal)
	}
	maxSteps := (d.Sched.Len + 2) * (loopBound + 2) * 2
	return net.criticalPath(loopBound, maxSteps)
}

// refPlace is a control place: a token must reside in it for duration
// steps before its output transitions can fire.
type refPlace struct {
	duration       int
	initial, final bool
}

// refTrans moves the token of place in to place out, when its guard (if
// any) reads guardVal.
type refTrans struct {
	in, out  int
	guard    string
	guardVal bool
}

type refNet struct {
	places []refPlace
	trans  []refTrans
}

// refChain is the straight-line control part: steps unit places in a row,
// the first initial and the last final.
func refChain(steps int) *refNet {
	n := &refNet{places: make([]refPlace, steps)}
	for i := range n.places {
		n.places[i].duration = 1
	}
	if steps > 0 {
		n.places[0].initial = true
		n.places[steps-1].final = true
	}
	for i := 0; i+1 < steps; i++ {
		n.trans = append(n.trans, refTrans{in: i, out: i + 1})
	}
	return n
}

// refLoop is the looping control part: the chain of body steps, whose last
// place returns to the first while signal is true and moves to a
// zero-duration final exit place when it is false.
func refLoop(bodySteps int, signal string) *refNet {
	n := refChain(bodySteps)
	n.places[bodySteps-1].final = false
	exit := len(n.places)
	n.places = append(n.places, refPlace{duration: 0, final: true})
	last := bodySteps - 1
	n.trans = append(n.trans,
		refTrans{in: last, out: 0, guard: signal, guardVal: true},
		refTrans{in: last, out: exit, guard: signal, guardVal: false})
	return n
}

// exec runs the net to its final marking under maximal-step semantics and
// returns the number of control steps taken. At each step boundary every
// enabled transition fires, cascading through zero-duration places; a
// guard signal is consulted once per boundary, and oracle is told how many
// times it was consulted before.
func (n *refNet) exec(oracle func(signal string, occurrence int) bool, maxSteps int) (int, error) {
	occ := map[string]int{}
	ages := map[int]int{} // marked place -> residence age
	for p, pl := range n.places {
		if pl.initial {
			ages[p] = 0
		}
	}
	for step := 0; step <= maxSteps; step++ {
		guards := map[string]bool{}
		for round := 0; ; round++ {
			if round > 4*len(n.trans)+4 {
				return 0, fmt.Errorf("ref: zero-delay cycle")
			}
			var ready []refTrans
			for _, t := range n.trans {
				if age, ok := ages[t.in]; !ok || age < n.places[t.in].duration {
					continue
				}
				if t.guard != "" {
					v, done := guards[t.guard]
					if !done {
						v = oracle(t.guard, occ[t.guard])
						guards[t.guard] = v
						occ[t.guard]++
					}
					if v != t.guardVal {
						continue
					}
				}
				ready = append(ready, t)
			}
			if len(ready) == 0 {
				break
			}
			for _, t := range ready {
				delete(ages, t.in)
				ages[t.out] = 0
			}
		}
		if n.isFinal(ages) {
			return step, nil
		}
		for p := range ages {
			ages[p]++
		}
	}
	return 0, fmt.Errorf("ref: final marking not reached within %d steps", maxSteps)
}

// isFinal reports whether every final place is marked and every token has
// resided for its place's duration.
func (n *refNet) isFinal(ages map[int]int) bool {
	any := false
	for p, pl := range n.places {
		if pl.final {
			any = true
			if _, ok := ages[p]; !ok {
				return false
			}
		}
	}
	for p, age := range ages {
		if age < n.places[p].duration {
			return false
		}
	}
	return any
}

// criticalPath returns the longest execution over the guard policies in
// which each signal holds one value for its first k consultations and the
// complement afterwards, k ranging over {0, loopBound}.
func (n *refNet) criticalPath(loopBound, maxSteps int) (int, error) {
	never := func(string, int) bool { return false }
	set := map[string]bool{}
	for _, t := range n.trans {
		if t.guard != "" {
			set[t.guard] = true
		}
	}
	var signals []string
	for s := range set {
		signals = append(signals, s)
	}
	sort.Strings(signals)
	if len(signals) == 0 {
		return n.exec(never, maxSteps)
	}
	type policy struct {
		k        int
		firstVal bool
	}
	policies := []policy{{0, true}, {loopBound, true}, {0, false}, {loopBound, false}}
	combos := 1
	for range signals {
		combos *= len(policies)
	}
	best := -1
	var firstErr error
	for combo := 0; combo < combos; combo++ {
		assign := map[string]policy{}
		c := combo
		for _, s := range signals {
			assign[s] = policies[c%len(policies)]
			c /= len(policies)
		}
		steps, err := n.exec(func(sig string, occurrence int) bool {
			p := assign[sig]
			if occurrence < p.k {
				return p.firstVal
			}
			return !p.firstVal
		}, maxSteps)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		best = max(best, steps)
	}
	if best < 0 {
		return 0, fmt.Errorf("ref: no guard policy completes: %w", firstErr)
	}
	return best, nil
}
