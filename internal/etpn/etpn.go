// Package etpn implements the Extended Timed Petri Net design
// representation (Peng & Kuchcinski [14]) that is the kernel of the
// high-level test synthesis system: a data path of ports, registers,
// functional modules and constants connected by arcs annotated with the
// control steps that activate them, plus a timed Petri net control part.
// The two parts are related through control places activating data
// transfers, and data-path condition signals guarding control transitions.
package etpn

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/alloc"
	"repro/internal/dfg"
	"repro/internal/petri"
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
// allocation, the derived data path, and the control part.
type Design struct {
	G     *dfg.Graph
	Sched sched.Schedule
	Alloc *alloc.Allocation
	Life  map[dfg.ValueID]alloc.Interval

	Nodes []*Node
	Arcs  []*Arc
	// into and from index Arcs by destination and source node, each list
	// ascending by arc id; Build fills them once the arcs are complete.
	into, from [][]*Arc

	Ctrl       *petri.Net
	CtrlPlaces []petri.PlaceID
	LoopSignal string // condition value name guarding the loop; "" if none

	regNode   map[int]int         // allocation register id -> node id
	modNode   map[int]int         // allocation module id -> node id
	inNode    map[dfg.ValueID]int // input value -> port node
	outNode   map[dfg.ValueID]int
	constNode map[dfg.ValueID]int
}

// Options controls Build.
type Options struct {
	// LoopSignal names a primary-output condition value; if non-empty the
	// control part loops back to the first control step while the signal is
	// true (the Diffeq behaviour). Empty builds a straight-line control
	// chain.
	LoopSignal string
}

// Build derives the ETPN data path and control part from a behaviour, a
// schedule, and an allocation. The lifetimes must correspond to the
// schedule (alloc.Lifetimes).
func Build(g *dfg.Graph, s sched.Schedule, a *alloc.Allocation, life map[dfg.ValueID]alloc.Interval, opt Options) (*Design, error) {
	d := &Design{
		G: g, Sched: s, Alloc: a, Life: life,
		LoopSignal: opt.LoopSignal,
		regNode:    map[int]int{}, modNode: map[int]int{},
		inNode: map[dfg.ValueID]int{}, outNode: map[dfg.ValueID]int{}, constNode: map[dfg.ValueID]int{},
	}
	addNode := func(n *Node) int {
		n.ID = len(d.Nodes)
		d.Nodes = append(d.Nodes, n)
		return n.ID
	}
	for _, v := range g.Values() {
		switch {
		case v.Kind == dfg.ValInput:
			d.inNode[v.ID] = addNode(&Node{Kind: KindInPort, Name: "in:" + v.Name, Value: v.ID})
		case v.Kind == dfg.ValConst:
			d.constNode[v.ID] = addNode(&Node{Kind: KindConst, Name: "const:" + v.Name, Value: v.ID})
		}
		if v.IsOutput {
			d.outNode[v.ID] = addNode(&Node{Kind: KindOutPort, Name: "out:" + v.Name, Value: v.ID})
		}
	}
	for _, r := range a.Regs {
		d.regNode[r.ID] = addNode(&Node{Kind: KindRegister, Name: fmt.Sprintf("R%d", r.ID), Vals: r.Vals, Value: dfg.NoValue})
	}
	for _, m := range a.Modules {
		d.modNode[m.ID] = addNode(&Node{Kind: KindModule, Name: fmt.Sprintf("M%d(%s)", m.ID, m.Class), Class: m.Class, Ops: m.Ops, Value: dfg.NoValue})
	}

	// Arc accumulation keyed by (from, to, toPort). Transfers are recorded
	// in discovery order and laid out per arc once all are known.
	arcIx := map[arcKey]int{}
	var keys []arcKey
	// Capacity: an input value is loaded and may feed an output port; an
	// operation reads its operands, writes its result and may feed one.
	bound := 2 * g.NumValues()
	for _, n := range g.Nodes() {
		bound += len(n.In) + 2
	}
	xfers := make([]xfer, 0, bound)
	addXfer := func(from, to, port, step int, v dfg.ValueID) {
		k := arcKey{from, to, port}
		i, ok := arcIx[k]
		if !ok {
			i = len(keys)
			arcIx[k] = i
			keys = append(keys, k)
		}
		xfers = append(xfers, xfer{i, step, v})
	}

	// Input loads: port -> register at the end of the birth step.
	for _, v := range g.Values() {
		if v.Kind != dfg.ValInput {
			continue
		}
		iv, stored := life[v.ID]
		if !stored {
			continue
		}
		r, ok := a.RegOf[v.ID]
		if !ok {
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
				r, ok := a.RegOf[v]
				if !ok {
					return nil, fmt.Errorf("etpn: operand %s of %s has no register", val.Name, n.Name)
				}
				src = d.regNode[r]
			}
			addXfer(src, mod, idx, step, v)
		}
		out := g.Value(n.Out)
		if r, ok := a.RegOf[n.Out]; ok {
			addXfer(mod, d.regNode[r], -1, step, n.Out)
		} else if !out.IsOutput {
			return nil, fmt.Errorf("etpn: result %s of %s has no register", out.Name, n.Name)
		}
		if out.IsOutput {
			if r, ok := a.RegOf[n.Out]; ok {
				addXfer(d.regNode[r], d.outNode[n.Out], -1, life[n.Out].Death, n.Out)
			} else {
				addXfer(mod, d.outNode[n.Out], -1, step, n.Out)
			}
		}
	}
	// Output ports for input values marked as outputs (pass-through).
	for _, v := range g.Values() {
		if v.Kind == dfg.ValInput && v.IsOutput {
			if r, ok := a.RegOf[v.ID]; ok {
				addXfer(d.regNode[r], d.outNode[v.ID], -1, life[v.ID].Death, v.ID)
			} else {
				addXfer(d.inNode[v.ID], d.outNode[v.ID], -1, 1, v.ID)
			}
		}
	}

	d.Arcs = layoutArcs(keys, xfers)
	d.into = arcLists(len(d.Nodes), d.Arcs, func(a *Arc) int { return a.To })
	d.from = arcLists(len(d.Nodes), d.Arcs, func(a *Arc) int { return a.From })

	// Control part.
	if opt.LoopSignal != "" {
		if _, ok := g.ValueByName(opt.LoopSignal); !ok {
			return nil, fmt.Errorf("etpn: loop signal %q is not a value of the behaviour", opt.LoopSignal)
		}
		net, places, _ := petri.Loop("ctrl:"+g.Name, s.Len, opt.LoopSignal)
		d.Ctrl = net
		d.CtrlPlaces = places
	} else {
		net, places := petri.Chain("ctrl:"+g.Name, s.Len)
		d.Ctrl = net
		d.CtrlPlaces = places
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
func (d *Design) InNode(v dfg.ValueID) (int, bool) { n, ok := d.inNode[v]; return n, ok }

// OutNode returns the port node of an output value.
func (d *Design) OutNode(v dfg.ValueID) (int, bool) { n, ok := d.outNode[v]; return n, ok }

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
// step, each module executes at most one operation per step, and the
// control part validates.
func (d *Design) Validate() error {
	for _, a := range d.Arcs {
		if a.From < 0 || a.From >= len(d.Nodes) || a.To < 0 || a.To >= len(d.Nodes) {
			return fmt.Errorf("etpn: arc %d references unknown node", a.ID)
		}
		if len(a.Steps) != len(a.Values) {
			return fmt.Errorf("etpn: arc %d has mismatched steps/values", a.ID)
		}
	}
	for _, n := range d.Nodes {
		if n.Kind != KindRegister {
			continue
		}
		writes := map[int]int{} // step -> count
		for _, a := range d.ArcsInto(n.ID) {
			for _, st := range a.Steps {
				writes[st]++
			}
		}
		for st, c := range writes {
			if c > 1 {
				return fmt.Errorf("etpn: register %s written %d times in step %d", n.Name, c, st)
			}
		}
	}
	for _, n := range d.Nodes {
		if n.Kind != KindModule {
			continue
		}
		steps := map[int]bool{}
		for _, op := range n.Ops {
			st := d.Sched.Step[op]
			if steps[st] {
				return fmt.Errorf("etpn: module %s executes two operations in step %d", n.Name, st)
			}
			steps[st] = true
		}
	}
	return d.Ctrl.Validate()
}

// MuxStats summarizes the multiplexing the allocation requires.
type MuxStats struct {
	Muxes  int // number of multiplexers (destinations with >1 source)
	Inputs int // total multiplexer inputs
}

// MuxStats counts, for every module operand port and register input, the
// distinct data sources; each destination fed by more than one source
// needs a multiplexer with that many inputs.
func (d *Design) MuxStats() MuxStats {
	type dest struct{ node, port int }
	srcs := map[dest]map[int]bool{}
	for _, a := range d.Arcs {
		to := d.Nodes[a.To]
		if to.Kind != KindModule && to.Kind != KindRegister {
			continue
		}
		k := dest{a.To, a.ToPort}
		if srcs[k] == nil {
			srcs[k] = map[int]bool{}
		}
		srcs[k][a.From] = true
	}
	var ms MuxStats
	for _, set := range srcs {
		if len(set) > 1 {
			ms.Muxes++
			ms.Inputs += len(set)
		}
	}
	return ms
}

// ExecutionTime returns the critical-path length of the control part in
// control steps (paper §4.2): for straight-line behaviours the schedule
// length, for loops loopBound iterations of the body.
func (d *Design) ExecutionTime(loopBound int) (int, error) {
	maxSteps := (d.Sched.Len + 2) * (loopBound + 2) * 2
	return d.Ctrl.CriticalPath(loopBound, maxSteps)
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
