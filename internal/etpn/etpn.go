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

	// Node ids by allocation register and module id, and by value id for
	// the input ports, output ports and constants (-1 where a value has
	// none).
	regNode, modNode           []int
	inNode, outNode, constNode []int
}

// Build derives the ETPN data path from a behaviour, a schedule, and an
// allocation. The lifetimes must correspond to the schedule
// (alloc.Lifetimes). A non-empty loop names a primary-output condition
// value: the control part loops back to the first control step while it
// is true (the Diffeq behaviour). Empty builds a straight-line control
// chain.
func Build(g *dfg.Graph, s sched.Schedule, a *alloc.Allocation, life alloc.Life, loop string) (*Design, error) {
	nv, nr, nm := g.NumValues(), len(a.Regs), len(a.Modules)
	ids := make([]int, 3*nv+nr+nm)
	for i := range ids[:3*nv] {
		ids[i] = -1
	}
	d := &Design{
		G: g, Sched: s, Alloc: a, Life: life,
		LoopSignal: loop,
		inNode:     ids[:nv:nv], outNode: ids[nv : 2*nv : 2*nv], constNode: ids[2*nv : 3*nv : 3*nv],
		regNode: ids[3*nv : 3*nv+nr : 3*nv+nr], modNode: ids[3*nv+nr:],
	}
	total := nr + nm
	for _, v := range g.Values() {
		if v.Kind == dfg.ValInput || v.Kind == dfg.ValConst {
			total++
		}
		if v.IsOutput {
			total++
		}
	}
	nodes := make([]Node, 0, total)
	d.Nodes = make([]*Node, 0, total)
	addNode := func(n Node) int {
		n.ID = len(d.Nodes)
		nodes = append(nodes, n)
		d.Nodes = append(d.Nodes, &nodes[n.ID])
		return n.ID
	}
	for _, v := range g.Values() {
		switch {
		case v.Kind == dfg.ValInput:
			d.inNode[v.ID] = addNode(Node{Kind: KindInPort, Name: "in:" + v.Name, Value: v.ID})
		case v.Kind == dfg.ValConst:
			d.constNode[v.ID] = addNode(Node{Kind: KindConst, Name: "const:" + v.Name, Value: v.ID})
		}
		if v.IsOutput {
			d.outNode[v.ID] = addNode(Node{Kind: KindOutPort, Name: "out:" + v.Name, Value: v.ID})
		}
	}
	for _, r := range a.Regs {
		d.regNode[r.ID] = addNode(Node{Kind: KindRegister, Name: "R" + strconv.Itoa(r.ID), Vals: r.Vals, Value: dfg.NoValue})
	}
	for _, m := range a.Modules {
		d.modNode[m.ID] = addNode(Node{Kind: KindModule, Name: "M" + strconv.Itoa(m.ID) + "(" + m.Class + ")", Class: m.Class, Ops: m.Ops, Value: dfg.NoValue})
	}

	// Arc accumulation keyed by (from, to, toPort), numbered in discovery
	// order. The arcs into each node form a chain: head[to] is the latest
	// arc into to and next[i] the one found before arc i, -1 ending both.
	// Transfers are recorded in discovery order and laid out per arc once
	// all are known.
	// Capacity: an input value is loaded and may feed an output port; an
	// operation reads its operands, writes its result and may feed one.
	bound := 2 * g.NumValues()
	for _, n := range g.Nodes() {
		bound += len(n.In) + 2
	}
	keys := make([]arcKey, 0, bound)
	next := make([]int, 0, bound)
	head := make([]int, len(d.Nodes))
	for i := range head {
		head[i] = -1
	}
	xfers := make([]xfer, 0, bound)
	addXfer := func(from, to, port, step int, v dfg.ValueID) {
		i := head[to]
		for i >= 0 && (keys[i].from != from || keys[i].port != port) {
			i = next[i]
		}
		if i < 0 {
			i = len(keys)
			keys = append(keys, arcKey{from, to, port})
			next = append(next, head[to])
			head[to] = i
		}
		xfers = append(xfers, xfer{i, step, v})
	}

	// Input loads: port -> register at the end of the birth step.
	for _, v := range g.Values() {
		if v.Kind != dfg.ValInput {
			continue
		}
		iv, stored := life.Of(v.ID)
		if !stored {
			continue
		}
		r := a.RegOf[v.ID]
		if r < 0 {
			return nil, fmt.Errorf("etpn: input %s has a lifetime but no register", v.Name)
		}
		addXfer(d.inNode[v.ID], d.regNode[r], -1, iv.Birth, v.ID)
	}
	// Operand and result transfers per operation.
	for _, n := range g.Nodes() {
		step := s.Step[n.ID]
		mod := d.modNode[a.ModuleOf[n.ID]]
		for idx, v := range n.In {
			val := g.Value(v)
			var src int
			if val.Kind == dfg.ValConst {
				src = d.constNode[v]
			} else {
				r := a.RegOf[v]
				if r < 0 {
					return nil, fmt.Errorf("etpn: operand %s of %s has no register", val.Name, n.Name)
				}
				src = d.regNode[r]
			}
			addXfer(src, mod, idx, step, v)
		}
		out := g.Value(n.Out)
		if r := a.RegOf[n.Out]; r >= 0 {
			addXfer(mod, d.regNode[r], -1, step, n.Out)
		} else if !out.IsOutput {
			return nil, fmt.Errorf("etpn: result %s of %s has no register", out.Name, n.Name)
		}
		if out.IsOutput {
			if r := a.RegOf[n.Out]; r >= 0 {
				addXfer(d.regNode[r], d.outNode[n.Out], -1, life[n.Out].Death, n.Out)
			} else {
				addXfer(mod, d.outNode[n.Out], -1, step, n.Out)
			}
		}
	}
	// Output ports for input values marked as outputs (pass-through).
	for _, v := range g.Values() {
		if v.Kind == dfg.ValInput && v.IsOutput {
			if r := a.RegOf[v.ID]; r >= 0 {
				addXfer(d.regNode[r], d.outNode[v.ID], -1, life[v.ID].Death, v.ID)
			} else {
				addXfer(d.inNode[v.ID], d.outNode[v.ID], -1, 1, v.ID)
			}
		}
	}

	d.Arcs = layoutArcs(keys, xfers)
	d.into = arcLists(len(d.Nodes), d.Arcs, func(a *Arc) int { return a.To })
	d.from = arcLists(len(d.Nodes), d.Arcs, func(a *Arc) int { return a.From })

	if loop != "" {
		if _, ok := g.ValueByName(loop); !ok {
			return nil, fmt.Errorf("etpn: loop signal %q is not a value of the behaviour", loop)
		}
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// RegNode returns the data-path node id of an allocation register id.
func (d *Design) RegNode(reg int) int { return d.regNode[reg] }

// ModNode returns the data-path node id of an allocation module id.
func (d *Design) ModNode(mod int) int { return d.modNode[mod] }

// InNode returns the port node of an input value.
func (d *Design) InNode(v dfg.ValueID) (int, bool) { n := d.inNode[v]; return n, n >= 0 }

// arcKey identifies an arc by its (from, to, toPort) triple.
type arcKey struct{ from, to, port int }

// xfer is one data transfer found by Build: a value moving over an arc in
// a control step.
type xfer struct {
	arc  int
	step int
	v    dfg.ValueID
}

// layoutArcs builds the arcs in key order, filling every arc's Steps and
// Values with its transfers in discovery order, as capacity-capped
// subslices of two shared arrays.
func layoutArcs(keys []arcKey, xfers []xfer) []*Arc {
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
		arcs[i] = Arc{ID: i, From: k.from, To: k.to, ToPort: k.port,
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
	// A register written twice in one step is named with its earliest such
	// step; writes is reused across registers.
	var writes []int
	for _, n := range d.Nodes {
		if n.Kind != KindRegister {
			continue
		}
		writes = writes[:0]
		for _, a := range d.ArcsInto(n.ID) {
			writes = append(writes, a.Steps...)
		}
		slices.Sort(writes)
		for i := 0; i < len(writes); {
			j := i + 1
			for j < len(writes) && writes[j] == writes[i] {
				j++
			}
			if j-i > 1 {
				return fmt.Errorf("etpn: register %s written %d times in step %d", n.Name, j-i, writes[i])
			}
			i = j
		}
	}
	for _, n := range d.Nodes {
		if n.Kind != KindModule {
			continue
		}
		for x, op := range n.Ops {
			st := d.Sched.Step[op]
			for _, prev := range n.Ops[:x] {
				if d.Sched.Step[prev] == st {
					return fmt.Errorf("etpn: module %s executes two operations in step %d", n.Name, st)
				}
			}
		}
	}
	return nil
}

// MuxStats summarizes the multiplexing the allocation requires.
type MuxStats struct {
	Muxes  int // number of multiplexers (destinations with >1 source)
	Inputs int // total multiplexer inputs
}

// MuxStats counts the multiplexers MuxInputs implies and their inputs.
func (d *Design) MuxStats() MuxStats {
	var ms MuxStats
	d.MuxInputs(func(sources int) {
		if sources > 1 {
			ms.Muxes++
			ms.Inputs += sources
		}
	})
	return ms
}

// MuxInputs calls visit with the number of distinct data sources of every
// module operand port and register input, in node then port order. A
// destination fed by more than one source needs a multiplexer with that
// many inputs.
func (d *Design) MuxInputs(visit func(sources int)) {
	var srcs [][2]int // (port, source) of the arcs into one node
	for _, nd := range d.Nodes {
		if nd.Kind != KindModule && nd.Kind != KindRegister {
			continue
		}
		srcs = srcs[:0]
		for _, a := range d.ArcsInto(nd.ID) {
			srcs = append(srcs, [2]int{a.ToPort, a.From})
		}
		slices.SortFunc(srcs, func(a, b [2]int) int {
			if a[0] != b[0] {
				return a[0] - b[0]
			}
			return a[1] - b[1]
		})
		for i := 0; i < len(srcs); {
			j, distinct := i+1, 1
			for ; j < len(srcs) && srcs[j][0] == srcs[i][0]; j++ {
				if srcs[j][1] != srcs[j-1][1] {
					distinct++
				}
			}
			visit(distinct)
			i = j
		}
	}
}

// ExecutionTime returns the critical-path length of the control part in
// control steps (paper §4.2). A chain of unit places takes the schedule
// length. A loop takes one body pass per back-edge firing plus the final
// pass that exits: the worst case fires the back edge loopBound times, and
// a negative bound fires it never.
func (d *Design) ExecutionTime(loopBound int) int {
	if d.LoopSignal == "" {
		return d.Sched.Len
	}
	return d.Sched.Len * (max(loopBound, 0) + 1)
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
