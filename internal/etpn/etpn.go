// Package etpn implements the Extended Timed Petri Net design
// representation (Peng & Kuchcinski [14]) that is the kernel of the
// high-level test synthesis system: a data path of ports, registers,
// functional modules and constants connected by arcs annotated with the
// control steps that activate them, plus a control part. Every design
// built here has one of two control parts: a chain of one unit-duration
// place per control step, or that chain closed by a back edge guarded by a
// data-path condition signal. Both are implied by the schedule length and
// the loop signal, so the design stores no net and computes the control
// part's critical path in closed form.
package etpn

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/alloc"
	"repro/internal/dfg"
	"repro/internal/sched"
)

// NodeKind classifies data-path nodes.
type NodeKind int

// Data-path node kinds.
const (
	KindInPort NodeKind = iota
	KindOutPort
	KindRegister
	KindModule
	KindConst
)

// String returns a short kind name.
func (k NodeKind) String() string {
	switch k {
	case KindInPort:
		return "in"
	case KindOutPort:
		return "out"
	case KindRegister:
		return "reg"
	case KindModule:
		return "mod"
	case KindConst:
		return "const"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Node is a data-path vertex: a port, register, functional module or
// wired constant.
type Node struct {
	ID    int
	Kind  NodeKind
	Name  string
	Class string        // module class; empty otherwise
	Ops   []dfg.NodeID  // operations executed here (modules)
	Vals  []dfg.ValueID // values stored here (registers)
	Value dfg.ValueID   // the value (ports, consts); NoValue otherwise
}

// Arc is a data transfer path between two data-path nodes. It is active in
// the listed control steps, carrying the listed values (parallel slices).
// ToPort is the operand index at a destination module, or -1.
type Arc struct {
	ID     int
	From   int
	To     int
	ToPort int
	Steps  []int
	Values []dfg.ValueID
}

// Design is a complete ETPN design: the behaviour, its schedule and
// allocation, the derived data path, and the loop signal that shapes the
// control part.
type Design struct {
	G     *dfg.Graph
	Sched sched.Schedule
	Alloc *alloc.Allocation
	Life  alloc.Life

	Nodes []*Node
	Arcs  []*Arc
	// into and from index Arcs by destination and source node, each list
	// ascending by arc id; Build fills them once the arcs are complete.
	into, from [][]*Arc

	LoopSignal string // condition value name guarding the loop; "" if none

	// Numbering maps allocation registers and modules, and the input
	// ports, output ports and constants of values, to node ids.
	Numbering
	// wiring is the indexed wiring Build laid the design out from.
	wiring *Wiring
}

// Build derives the ETPN data path from a behaviour, a schedule, and an
// allocation. The lifetimes must correspond to the schedule
// (alloc.Lifetimes). A non-empty loop names a primary-output condition
// value: the control part loops back to the first control step while it
// is true (the Diffeq behaviour). Empty builds a straight-line control
// chain. Build runs Validate's checks on the transfers before it lays the
// design out (Wiring.Derive).
func Build(g *dfg.Graph, s sched.Schedule, a *alloc.Allocation, life alloc.Life, loop string) (*Design, error) {
	w := new(Wiring)
	if err := w.Derive(g, s, a, life, loop); err != nil {
		return nil, err
	}
	w.Index()
	d := &Design{
		G: g, Sched: s, Alloc: a, Life: life,
		LoopSignal: loop,
		Numbering:  w.Numbering,
		wiring:     w,
	}
	nodes := make([]Node, 0, w.nodes)
	d.Nodes = make([]*Node, 0, w.nodes)
	addNode := func(n Node) {
		n.ID = len(d.Nodes)
		nodes = append(nodes, n)
		d.Nodes = append(d.Nodes, &nodes[n.ID])
	}
	for _, v := range g.Values() {
		switch v.Kind {
		case dfg.ValInput:
			addNode(Node{Kind: KindInPort, Name: "in:" + v.Name, Value: v.ID})
		case dfg.ValConst:
			addNode(Node{Kind: KindConst, Name: "const:" + v.Name, Value: v.ID})
		}
		if v.IsOutput {
			addNode(Node{Kind: KindOutPort, Name: "out:" + v.Name, Value: v.ID})
		}
	}
	for _, r := range a.Regs {
		addNode(Node{Kind: KindRegister, Name: "R" + strconv.Itoa(r.ID), Vals: r.Vals, Value: dfg.NoValue})
	}
	for _, m := range a.Modules {
		addNode(Node{Kind: KindModule, Name: "M" + strconv.Itoa(m.ID) + "(" + m.Class + ")", Class: m.Class, Ops: m.Ops, Value: dfg.NoValue})
	}
	d.Arcs = layoutArcs(w.links, w.xfers)
	d.into = arcLists(len(d.Nodes), d.Arcs, func(a *Arc) int { return a.To })
	d.from = arcLists(len(d.Nodes), d.Arcs, func(a *Arc) int { return a.From })
	// The design keeps the links and their view; Derive's scratch goes.
	w.next, w.head, w.xfers, w.writes = nil, nil, nil, nil
	return d, nil
}

// Wiring returns the indexed wiring d was laid out from: its links and
// node-indexed view are d's arcs, node kinds and module classes. Callers
// must not modify or re-derive it.
func (d *Design) Wiring() *Wiring { return d.wiring }

// layoutArcs builds the arcs in link order, filling every arc's Steps and
// Values with its transfers in discovery order, as capacity-capped
// subslices of two shared arrays.
func layoutArcs(keys []Link, xfers []xfer) []*Arc {
	count := make([]int, len(keys))
	for _, x := range xfers {
		count[x.arc]++
	}
	arcs := make([]Arc, len(keys))
	steps := make([]int, len(xfers))
	vals := make([]dfg.ValueID, len(xfers))
	off := 0
	for i, k := range keys {
		c := count[i]
		arcs[i] = Arc{ID: i, From: k.From, To: k.To, ToPort: k.Port,
			Steps: steps[off : off : off+c], Values: vals[off : off : off+c]}
		off += c
	}
	for _, x := range xfers {
		a := &arcs[x.arc]
		a.Steps = append(a.Steps, x.step)
		a.Values = append(a.Values, x.v)
	}
	out := make([]*Arc, len(arcs))
	for i := range arcs {
		out[i] = &arcs[i]
	}
	return out
}

// arcLists groups arcs by the node end(a), keeping arc order, as
// capacity-capped subslices of one backing array.
func arcLists(nodes int, arcs []*Arc, end func(*Arc) int) [][]*Arc {
	count := make([]int, nodes)
	for _, a := range arcs {
		count[end(a)]++
	}
	backing := make([]*Arc, len(arcs))
	lists := make([][]*Arc, nodes)
	off := 0
	for n, c := range count {
		lists[n] = backing[off : off : off+c]
		off += c
	}
	for _, a := range arcs {
		lists[end(a)] = append(lists[end(a)], a)
	}
	return lists
}

// ArcsInto returns the arcs terminating at node id, ascending by arc id.
// Callers must not modify the returned slice.
func (d *Design) ArcsInto(id int) []*Arc { return d.into[id] }

// ArcsFrom returns the arcs originating at node id, ascending by arc id.
// Callers must not modify the returned slice.
func (d *Design) ArcsFrom(id int) []*Arc { return d.from[id] }

// Validate checks structural consistency of the design: arcs reference
// valid nodes, each register is written by at most one source per control
// step, and each module executes at most one operation per step.
func (d *Design) Validate() error {
	for _, a := range d.Arcs {
		if a.From < 0 || a.From >= len(d.Nodes) || a.To < 0 || a.To >= len(d.Nodes) {
			return fmt.Errorf("etpn: arc %d references unknown node", a.ID)
		}
		if len(a.Steps) != len(a.Values) {
			return fmt.Errorf("etpn: arc %d has mismatched steps/values", a.ID)
		}
	}
	var writes [][2]int
	for _, n := range d.Nodes {
		if n.Kind != KindRegister {
			continue
		}
		for _, a := range d.ArcsInto(n.ID) {
			for _, st := range a.Steps {
				writes = append(writes, [2]int{n.ID, st})
			}
		}
	}
	if node, step, count := doubleWrite(writes); count > 1 {
		return fmt.Errorf("etpn: register %s written %d times in step %d", d.Nodes[node].Name, count, step)
	}
	for _, n := range d.Nodes {
		if n.Kind != KindModule {
			continue
		}
		if st, ok := clash(n.Ops, d.Sched); ok {
			return fmt.Errorf("etpn: module %s executes two operations in step %d", n.Name, st)
		}
	}
	return nil
}

// doubleWrite sorts the (register node, step) writes and returns the
// first register, in node order, written more than once in one step, at
// its earliest such step, with the number of writes there; count is 0 if
// there is none.
func doubleWrite(writes [][2]int) (node, step, count int) {
	slices.SortFunc(writes, func(a, b [2]int) int {
		if a[0] != b[0] {
			return a[0] - b[0]
		}
		return a[1] - b[1]
	})
	for i := 0; i < len(writes); {
		j := i + 1
		for j < len(writes) && writes[j] == writes[i] {
			j++
		}
		if j-i > 1 {
			return writes[i][0], writes[i][1], j - i
		}
		i = j
	}
	return 0, 0, 0
}

// clash returns the step of the first of ops that shares its step with
// an earlier one.
func clash(ops []dfg.NodeID, s sched.Schedule) (int, bool) {
	for x, op := range ops {
		st := s.Step[op]
		for _, prev := range ops[:x] {
			if s.Step[prev] == st {
				return st, true
			}
		}
	}
	return 0, false
}

// ExecutionTime returns the critical-path length in control steps (paper
// §4.2) of the control part of the design Build derives from schedule s
// under the loop signal loop; it needs no design. A chain of unit places
// takes the schedule length. A loop takes one body pass per back-edge
// firing plus the final pass that exits: the worst case fires the back
// edge loopBound times, and a negative bound fires it never.
func ExecutionTime(s sched.Schedule, loop string, loopBound int) int {
	if loop == "" {
		return s.Len
	}
	return s.Len * (max(loopBound, 0) + 1)
}

// SelfLoops counts data-path nodes with a direct self arc (module feeding
// its own operand through one register, or register whose value returns in
// one step). Self-loops are the structures conventional allocation creates
// and testable allocation avoids (paper §3). A self-loop here is a
// register r whose stored value is produced by a module that reads r, i.e.
// a length-2 structural cycle register -> module -> register.
func (d *Design) SelfLoops() int {
	count := 0
	for _, n := range d.Nodes {
		if n.Kind != KindRegister {
			continue
		}
		// modules reading this register
		reads := map[int]bool{}
		for _, a := range d.ArcsFrom(n.ID) {
			if d.Nodes[a.To].Kind == KindModule {
				reads[a.To] = true
			}
		}
		for _, a := range d.ArcsInto(n.ID) {
			if d.Nodes[a.From].Kind == KindModule && reads[a.From] {
				count++
				break
			}
		}
	}
	return count
}

// String renders the data path: nodes then arcs with their step
// annotations.
func (d *Design) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ETPN %s: %d nodes, %d arcs, %d control steps\n", d.G.Name, len(d.Nodes), len(d.Arcs), d.Sched.Len)
	for _, n := range d.Nodes {
		fmt.Fprintf(&b, "  node %2d %-5s %s\n", n.ID, n.Kind, n.Name)
	}
	for _, a := range d.Arcs {
		steps := make([]string, len(a.Steps))
		for i, s := range a.Steps {
			steps[i] = fmt.Sprintf("%d:%s", s, d.G.Value(a.Values[i]).Name)
		}
		sort.Strings(steps)
		port := ""
		if a.ToPort >= 0 {
			port = fmt.Sprintf(".%d", a.ToPort)
		}
		fmt.Fprintf(&b, "  arc %2d: %s -> %s%s [%s]\n", a.ID, d.Nodes[a.From].Name, d.Nodes[a.To].Name, port, strings.Join(steps, " "))
	}
	return b.String()
}
