package petri

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/chaos"
	"repro/internal/exec"
)

// ReachEdge is an edge of the reachability graph: firing a transition moved
// the net from one marking to another.
type ReachEdge struct {
	Trans TransID
	To    int // index of the destination node
}

// ReachNode is a node of the reachability graph.
type ReachNode struct {
	Marking Marking
	Key     string
	Final   bool
	Edges   []ReachEdge
	// BackEdge marks edges (by index into Edges) that close a cycle, i.e.
	// reach a marking already on the path from the root; they correspond to
	// loops in the control flow.
	BackEdge map[int]bool
}

// Reach is the result of a bounded reachability exploration. When the
// node budget runs out mid-exploration the computation no longer fails:
// it returns the explored prefix with Status == exec.StatusPartial and
// Exhausted naming the budget, so state explosion in a large control net
// degrades a caller gracefully instead of aborting it (PAPER.md §ΔE runs
// on the reachable-state structure, and a prefix still supports
// best-effort analysis).
type Reach struct {
	// Nodes is the explored reachability graph. Under StatusPartial it is a
	// breadth-consistent prefix: every node is genuinely reachable, but
	// edges out of unexpanded frontier nodes are missing.
	Nodes []*ReachNode
	// Status is StatusComplete when the whole reachable set was explored.
	Status exec.Status
	// Exhausted names the spent budget (exec.BudgetReachNodes) under
	// StatusPartial, "" otherwise.
	Exhausted string
}

// Reachability explores the markings reachable from the initial marking
// under untimed interleaving semantics (guards are treated as free
// choices, which over-approximates the timed behaviour). It represents the
// paper's reachability tree with repeated markings shared; maxNodes bounds
// the exploration. Exceeding maxNodes is not an error but a first-class
// partial outcome carrying the explored prefix. Errors are reserved for
// cancellation, unsafe nets (a transition would produce a token into a
// marked place that is not simultaneously consumed) and recovered panics.
// The context is checked before each marking expansion, so a deadline
// bounds the exploration in time the way maxNodes bounds it in space.
func (n *Net) Reachability(ctx context.Context, maxNodes int) (*Reach, error) {
	return exec.Guard1("petri.reach", -1, func() (*Reach, error) {
		return n.explore(ctx, maxNodes)
	})
}

func (n *Net) explore(ctx context.Context, maxNodes int) (*Reach, error) {
	start := n.InitialMarking()
	index := map[string]int{}
	var nodes []*ReachNode
	add := func(m Marking) int {
		k := m.Key()
		if i, ok := index[k]; ok {
			return i
		}
		i := len(nodes)
		index[k] = i
		nodes = append(nodes, &ReachNode{Marking: m, Key: k, Final: n.IsFinal(m), BackEdge: map[int]bool{}})
		return i
	}
	add(start)
	for i := 0; i < len(nodes); i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// The chaos site simulates the node budget running out at this
		// expansion, exercising the same partial-prefix path.
		if len(nodes) > maxNodes || chaos.Step(chaos.SitePetriReach) != nil {
			return &Reach{
				Nodes:     nodes,
				Status:    exec.StatusPartial,
				Exhausted: exec.BudgetReachNodes,
			}, nil
		}
		cur := nodes[i]
		for _, t := range n.transitions {
			ok := true
			for _, p := range t.In {
				if !cur.Marking.Has(p) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			// Safety check: outputs must not collide with surviving tokens.
			consumed := map[PlaceID]bool{}
			for _, p := range t.In {
				consumed[p] = true
			}
			for _, p := range t.Out {
				if cur.Marking.Has(p) && !consumed[p] {
					return nil, fmt.Errorf("petri: net %s is unsafe: firing %s duplicates token in %s",
						n.Name, t.Name, n.places[p].Name)
				}
			}
			next := n.fire(t, cur.Marking)
			j := add(next)
			cur.Edges = append(cur.Edges, ReachEdge{Trans: t.ID, To: j})
			if j <= i {
				cur.BackEdge[len(cur.Edges)-1] = true
			}
		}
	}
	return &Reach{Nodes: nodes, Status: exec.StatusComplete}, nil
}

// CriticalPath returns the worst-case number of control steps for a token
// to flow from the initial to the final marking — the length of the
// critical path of the control part (paper §4.2). Guard signals are
// explored over exit policies in which each signal holds one value for its
// first k consultations and the complement afterwards, with k ranging over
// {0, loopBound}; loops therefore contribute loopBound iterations. maxSteps
// bounds each timed execution.
func (n *Net) CriticalPath(loopBound, maxSteps int) (int, error) {
	signals := n.guardSignals()
	if len(signals) == 0 {
		return n.Exec(nil, maxSteps)
	}
	if len(signals) > 12 {
		return 0, fmt.Errorf("petri: %d guard signals exceed critical-path enumeration limit", len(signals))
	}
	type policy struct {
		k        int
		firstVal bool
	}
	policies := []policy{{0, true}, {loopBound, true}, {0, false}, {loopBound, false}}
	best := -1
	var firstErr error
	nCombos := 1
	for range signals {
		nCombos *= len(policies)
	}
	for combo := 0; combo < nCombos; combo++ {
		assign := map[string]policy{}
		c := combo
		for _, s := range signals {
			assign[s] = policies[c%len(policies)]
			c /= len(policies)
		}
		oracle := func(sig string, occurrence int) bool {
			p := assign[sig]
			if occurrence < p.k {
				return p.firstVal
			}
			return !p.firstVal
		}
		steps, err := n.Exec(oracle, maxSteps)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if steps > best {
			best = steps
		}
	}
	if best < 0 {
		return 0, fmt.Errorf("petri: no guard policy completes: %w", firstErr)
	}
	return best, nil
}

func (n *Net) guardSignals() []string {
	set := map[string]bool{}
	for _, t := range n.transitions {
		if t.Guard != "" {
			set[t.Guard] = true
		}
	}
	var out []string
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Chain builds a linear control chain of the given number of unit-duration
// control steps: s0 -> s1 -> ... -> s(k-1), with s0 initial and s(k-1)
// final. It returns the net and the place ids in order. Chains are the
// control shape produced for straight-line schedules.
func Chain(name string, steps int) (*Net, []PlaceID) {
	n := NewNet(name)
	ids := make([]PlaceID, steps)
	for i := 0; i < steps; i++ {
		ids[i] = n.AddPlace(fmt.Sprintf("s%d", i+1), 1)
	}
	if steps > 0 {
		n.MarkInitial(ids[0])
		n.MarkFinal(ids[steps-1])
	}
	for i := 0; i+1 < steps; i++ {
		n.AddTransition("", []PlaceID{ids[i]}, []PlaceID{ids[i+1]})
	}
	return n, ids
}

// Loop builds a chain of body steps with a guarded back edge: after the
// last body place, signal==true returns control to the first place and
// signal==false moves to a final exit place. Loops are the control shape
// produced for iterative behaviours such as Diffeq.
func Loop(name string, bodySteps int, signal string) (*Net, []PlaceID, PlaceID) {
	n := NewNet(name)
	ids := make([]PlaceID, bodySteps)
	for i := 0; i < bodySteps; i++ {
		ids[i] = n.AddPlace(fmt.Sprintf("s%d", i+1), 1)
	}
	exit := n.AddPlace("exit", 0)
	n.MarkInitial(ids[0])
	n.MarkFinal(exit)
	for i := 0; i+1 < bodySteps; i++ {
		n.AddTransition("", []PlaceID{ids[i]}, []PlaceID{ids[i+1]})
	}
	last := ids[bodySteps-1]
	n.AddGuarded("loop", []PlaceID{last}, []PlaceID{ids[0]}, signal, true)
	n.AddGuarded("exit", []PlaceID{last}, []PlaceID{exit}, signal, false)
	return n, ids, exit
}
