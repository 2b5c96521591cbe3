package etpn

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/dfg"
	"repro/internal/sched"
)

// Numbering is Build's node numbering of a (graph, allocation) pair: the
// port and constant nodes of the values in value order, then the
// registers, then the modules. It needs no design, so node-indexed data
// such as testability metrics can be read without one.
type Numbering struct {
	// ids backs the numbering: the input port, output port and constant
	// node of every value (-1 where it has none), then the node of every
	// register and of every module.
	ids                        []int
	inNode, outNode, constNode []int
	regNode, modNode           []int
	// portKind is the kind of every port and constant node in node order;
	// modules are the numbered allocation's modules, which Class reads.
	portKind []NodeKind
	modules  []*alloc.ModuleGroup
	// ports counts the port and constant nodes, which come first; nodes
	// counts all of them.
	ports, nodes int
}

// Number refills nb with the numbering of (g, a), reusing its array.
func (nb *Numbering) Number(g *dfg.Graph, a *alloc.Allocation) {
	nv, nr, nm := g.NumValues(), len(a.Regs), len(a.Modules)
	nb.ids = reuse(nb.ids, 3*nv+nr+nm)[:3*nv+nr+nm]
	for i := range nb.ids[:3*nv] {
		nb.ids[i] = -1
	}
	clear(nb.ids[3*nv:])
	ids := nb.ids
	nb.inNode, nb.outNode, nb.constNode = ids[:nv:nv], ids[nv:2*nv:2*nv], ids[2*nv:3*nv:3*nv]
	nb.regNode, nb.modNode = ids[3*nv:3*nv+nr:3*nv+nr], ids[3*nv+nr:]
	nb.portKind = nb.portKind[:0]
	id := 0
	for _, v := range g.Values() {
		switch v.Kind {
		case dfg.ValInput:
			nb.inNode[v.ID] = id
			nb.portKind = append(nb.portKind, KindInPort)
			id++
		case dfg.ValConst:
			nb.constNode[v.ID] = id
			nb.portKind = append(nb.portKind, KindConst)
			id++
		}
		if v.IsOutput {
			nb.outNode[v.ID] = id
			nb.portKind = append(nb.portKind, KindOutPort)
			id++
		}
	}
	nb.ports = id
	for _, r := range a.Regs {
		nb.regNode[r.ID] = id
		id++
	}
	for _, m := range a.Modules {
		nb.modNode[m.ID] = id
		id++
	}
	nb.modules = a.Modules
	nb.nodes = id
}

// Kind returns the kind of node id.
func (nb *Numbering) Kind(id int) NodeKind {
	switch {
	case id < nb.ports:
		return nb.portKind[id]
	case id < nb.nodes-len(nb.modules):
		return KindRegister
	}
	return KindModule
}

// Class returns the class of module node id, and "" for any other node.
// It reads the numbered allocation's modules, which must not have changed
// since Number.
func (nb *Numbering) Class(id int) string {
	if m := id - (nb.nodes - len(nb.modules)); m >= 0 {
		return nb.modules[m].Class
	}
	return ""
}

// RegNode returns the data-path node id of an allocation register id.
func (nb *Numbering) RegNode(reg int) int { return nb.regNode[reg] }

// ModNode returns the data-path node id of an allocation module id.
func (nb *Numbering) ModNode(mod int) int { return nb.modNode[mod] }

// InNode returns the port node of an input value.
func (nb *Numbering) InNode(v dfg.ValueID) (int, bool) { n := nb.inNode[v]; return n, n >= 0 }

// Wiring is the data path Build derives from a behaviour, a schedule, an
// allocation and its lifetimes, kept as dense arrays: the node numbering,
// the arcs as links in discovery order, and every transfer over them.
// Derive refills a Wiring in place, so a caller that keeps one derives
// data paths without allocating once its arrays have grown; Build derives
// into a fresh one and lays the design out from it.
//
// Index adds a node-indexed view: every node's links in and out, in link
// order, which is the order of Design.ArcsInto and ArcsFrom. With the
// node kinds and module classes of the numbering, it is all a node-level
// analysis such as testability reads, so one needs no design.
//
// The links depend only on the graph, ModuleOf, RegOf and whether an input
// value has uses. The schedule and lifetimes only stamp the transfers with
// control steps, which the structural checks read.
type Wiring struct {
	Numbering

	links []Link
	// next chains the links into one node: head[to] is the latest link
	// into to and next[i] the one found before link i, -1 ending both.
	next, head []int
	xfers      []xfer
	// writes is the register check's scratch: (node, step) per write.
	writes [][2]int
	// The view Index fills: node id's links in are in[inOff[id]:
	// inOff[id+1]], its links out out[outOff[id]:outOff[id+1]]. Derive
	// empties the offsets, so reading a stale view panics.
	inOff, outOff []int
	in, out       []Link
}

// Link is an arc of a Wiring: the nodes it joins and the operand port at
// the destination (-1 unless the destination is a module).
type Link struct{ From, To, Port int }

// xfer is one data transfer: a value moving over a link in a control
// step.
type xfer struct {
	arc  int
	step int
	v    dfg.ValueID
}

// Nodes returns the number of data-path nodes.
func (w *Wiring) Nodes() int { return w.nodes }

// Links returns the arcs in Build's discovery order, which is the order of
// Design.Arcs. Callers must not modify the returned slice.
func (w *Wiring) Links() []Link { return w.links }

// Derive refills w with the data path of (g, s, a, life) under the loop
// signal loop, running every check Build runs, in Build's order and with
// its messages: Build fails exactly where Derive does.
func (w *Wiring) Derive(g *dfg.Graph, s sched.Schedule, a *alloc.Allocation, life alloc.Life, loop string) error {
	w.Number(g, a)
	w.inOff, w.outOff = w.inOff[:0], w.outOff[:0]
	// Capacity: an input value is loaded and may feed an output port; an
	// operation reads its operands, writes its result and may feed one.
	bound := 2 * g.NumValues()
	for _, n := range g.Nodes() {
		bound += len(n.In) + 2
	}
	w.links = reuse(w.links, bound)
	w.next = reuse(w.next, bound)
	w.xfers = reuse(w.xfers, bound)
	w.head = reuse(w.head, w.nodes)
	for range w.nodes {
		w.head = append(w.head, -1)
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
			return fmt.Errorf("etpn: input %s has a lifetime but no register", v.Name)
		}
		w.add(w.inNode[v.ID], w.regNode[r], -1, iv.Birth, v.ID)
	}
	// Operand and result transfers per operation.
	for _, n := range g.Nodes() {
		step := s.Step[n.ID]
		mod := w.modNode[a.ModuleOf[n.ID]]
		for idx, v := range n.In {
			val := g.Value(v)
			var src int
			if val.Kind == dfg.ValConst {
				src = w.constNode[v]
			} else {
				r := a.RegOf[v]
				if r < 0 {
					return fmt.Errorf("etpn: operand %s of %s has no register", val.Name, n.Name)
				}
				src = w.regNode[r]
			}
			w.add(src, mod, idx, step, v)
		}
		out := g.Value(n.Out)
		if r := a.RegOf[n.Out]; r >= 0 {
			w.add(mod, w.regNode[r], -1, step, n.Out)
		} else if !out.IsOutput {
			return fmt.Errorf("etpn: result %s of %s has no register", out.Name, n.Name)
		}
		if out.IsOutput {
			if r := a.RegOf[n.Out]; r >= 0 {
				w.add(w.regNode[r], w.outNode[n.Out], -1, life[n.Out].Death, n.Out)
			} else {
				w.add(mod, w.outNode[n.Out], -1, step, n.Out)
			}
		}
	}
	// Output ports for input values marked as outputs (pass-through).
	for _, v := range g.Values() {
		if v.Kind == dfg.ValInput && v.IsOutput {
			if r := a.RegOf[v.ID]; r >= 0 {
				w.add(w.regNode[r], w.outNode[v.ID], -1, life[v.ID].Death, v.ID)
			} else {
				w.add(w.inNode[v.ID], w.outNode[v.ID], -1, 1, v.ID)
			}
		}
	}

	if loop != "" {
		if _, ok := g.ValueByName(loop); !ok {
			return fmt.Errorf("etpn: loop signal %q is not a value of the behaviour", loop)
		}
	}
	return w.check(s, a)
}

// add records a transfer over the link (from, to, port), creating the
// link on its first transfer.
func (w *Wiring) add(from, to, port, step int, v dfg.ValueID) {
	i := w.head[to]
	for i >= 0 && (w.links[i].From != from || w.links[i].Port != port) {
		i = w.next[i]
	}
	if i < 0 {
		i = len(w.links)
		w.links = append(w.links, Link{from, to, port})
		w.next = append(w.next, w.head[to])
		w.head[to] = i
	}
	w.xfers = append(w.xfers, xfer{i, step, v})
}

// check runs Validate's structural checks on the transfers, naming the
// violation Validate names on the design Build lays out: each register is
// written at most once per control step, and each module executes at most
// one operation per step.
func (w *Wiring) check(s sched.Schedule, a *alloc.Allocation) error {
	regs := w.ports // the first register node
	w.writes = w.writes[:0]
	for _, x := range w.xfers {
		if to := w.links[x.arc].To; to >= regs && to < regs+len(a.Regs) {
			w.writes = append(w.writes, [2]int{to, x.step})
		}
	}
	if node, step, count := doubleWrite(w.writes); count > 1 {
		return fmt.Errorf("etpn: register R%d written %d times in step %d", a.Regs[node-regs].ID, count, step)
	}
	for _, m := range a.Modules {
		if st, ok := clash(m.Ops, s); ok {
			return fmt.Errorf("etpn: module M%d(%s) executes two operations in step %d", m.ID, m.Class, st)
		}
	}
	return nil
}

// Index fills the node-indexed view of the links Derive found.
func (w *Wiring) Index() {
	w.inOff, w.in = group(w.inOff, w.in, w.nodes, w.links, true)
	w.outOff, w.out = group(w.outOff, w.out, w.nodes, w.links, false)
}

// Into returns the links into node id in link order. Callers must not
// modify the returned slice.
func (w *Wiring) Into(id int) []Link { return w.in[w.inOff[id]:w.inOff[id+1]] }

// From returns the links out of node id in link order. Callers must not
// modify the returned slice.
func (w *Wiring) From(id int) []Link { return w.out[w.outOff[id]:w.outOff[id+1]] }

// group groups links by destination (byTo) or by source into off and
// list, reusing their arrays, keeping link order within each node.
func group(off []int, list []Link, nodes int, links []Link, byTo bool) ([]int, []Link) {
	end := func(l Link) int {
		if byTo {
			return l.To
		}
		return l.From
	}
	off = reuse(off, nodes+1)[:nodes+1]
	clear(off)
	for _, l := range links {
		off[end(l)+1]++
	}
	for n := range nodes {
		off[n+1] += off[n]
	}
	// Fill with off[n] as node n's cursor, which leaves it at the start
	// of node n+1's list, then shift the offsets back.
	list = reuse(list, len(links))[:len(links)]
	for _, l := range links {
		list[off[end(l)]] = l
		off[end(l)]++
	}
	copy(off[1:], off[:nodes])
	off[0] = 0
	return off, list
}

// reuse returns s emptied, with room for n elements.
func reuse[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}
