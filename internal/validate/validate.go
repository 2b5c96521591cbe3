// Package validate holds the structural invariant checkers run at the
// stage boundaries of the synthesis pipeline: behaviour graph, ETPN
// design (schedule + allocation + data path), and gate-level
// netlist. Each checker walks one artifact and reports the first violated
// invariant as a typed *Error naming the stage and the invariant, so a
// corrupted intermediate design is caught where it was produced instead
// of surfacing as a downstream panic or a silently wrong figure.
//
// The checkers are read-only, deterministic, and deliberately
// re-derive their facts from first principles (e.g. register-share
// disjointness is re-proved from the lifetime intervals, not read off the
// allocator's own bookkeeping) — an invariant checked by the code that
// maintains it proves nothing. They run behind core.Params.Validate /
// report.Config.Validate and cost one linear pass per artifact.
package validate

import (
	"errors"
	"fmt"

	"repro/internal/alloc"
	"repro/internal/dfg"
	"repro/internal/etpn"
	"repro/internal/gates"
	"repro/internal/rtl"
)

// Error is a violated structural invariant: which pipeline stage produced
// the artifact, which invariant failed, and the specifics.
type Error struct {
	// Stage names the artifact: "dfg", "etpn", "alloc" or "rtl".
	Stage string
	// Invariant is the short kebab-case name of the violated invariant,
	// e.g. "reg-lifetime-disjoint" or "scan-chain-order".
	Invariant string
	// Detail pinpoints the violation.
	Detail string
}

// Error renders the violation.
func (e *Error) Error() string {
	return fmt.Sprintf("validate: %s: %s: %s", e.Stage, e.Invariant, e.Detail)
}

// As unwraps err to a *Error if one is in its chain.
func As(err error) (*Error, bool) {
	var e *Error
	if errors.As(err, &e) {
		return e, true
	}
	return nil, false
}

func fail(stage, invariant, format string, args ...any) error {
	return &Error{Stage: stage, Invariant: invariant, Detail: fmt.Sprintf(format, args...)}
}

// Graph checks the behavioural data-flow graph: id-space consistency,
// operand arity, and def/use back-pointer symmetry (wrapping the graph's
// own structural check into the typed vocabulary).
func Graph(g *dfg.Graph) error {
	if g == nil {
		return fail("dfg", "non-nil", "nil graph")
	}
	if err := g.Validate(); err != nil {
		return &Error{Stage: "dfg", Invariant: "graph-structure", Detail: err.Error()}
	}
	return nil
}

// arcShapes is the complete set of data-transfer shapes the ETPN builder
// can produce. Everything else — a module feeding a module combinationally
// (which would break the one-transfer-per-step acyclicity of the data
// path), a register feeding a register without a module, a port being
// written — is a corruption.
var arcShapes = map[[2]etpn.NodeKind]bool{
	{etpn.KindInPort, etpn.KindRegister}:  true,
	{etpn.KindInPort, etpn.KindOutPort}:   true,
	{etpn.KindConst, etpn.KindModule}:     true,
	{etpn.KindRegister, etpn.KindModule}:  true,
	{etpn.KindModule, etpn.KindRegister}:  true,
	{etpn.KindRegister, etpn.KindOutPort}: true,
	{etpn.KindModule, etpn.KindOutPort}:   true,
}

// Design checks a synthesized ETPN design end to end: the data-path arc
// discipline, the schedule's step range, the allocation's id-space and
// ownership consistency, and the disjoint-lifetime invariant of every
// shared register.
func Design(d *etpn.Design) error {
	if d == nil {
		return fail("etpn", "non-nil", "nil design")
	}
	if err := Graph(d.G); err != nil {
		return err
	}
	if err := d.Validate(); err != nil {
		return &Error{Stage: "etpn", Invariant: "design-structure", Detail: err.Error()}
	}

	// Schedule: every operation sits on a control step in [1, Len].
	for _, n := range d.G.Nodes() {
		if int(n.ID) >= len(d.Sched.Step) || d.Sched.Step[n.ID] == 0 {
			return fail("etpn", "schedule-total", "operation %s has no control step", n.Name)
		}
		if st := d.Sched.Step[n.ID]; st < 1 || st > d.Sched.Len {
			return fail("etpn", "schedule-range", "operation %s at step %d outside [1, %d]", n.Name, st, d.Sched.Len)
		}
	}

	// Arc discipline: only the builder's shapes, operand ports only into
	// modules and within the module's arity, steps inside the schedule.
	for _, a := range d.Arcs {
		from, to := d.Nodes[a.From], d.Nodes[a.To]
		if !arcShapes[[2]etpn.NodeKind{from.Kind, to.Kind}] {
			return fail("etpn", "arc-shape", "arc %d is %s->%s (%s -> %s)", a.ID, from.Kind, to.Kind, from.Name, to.Name)
		}
		if to.Kind == etpn.KindModule {
			if a.ToPort < 0 || a.ToPort >= moduleArity(d, to) {
				return fail("etpn", "arc-port", "arc %d into %s has operand port %d (arity %d)", a.ID, to.Name, a.ToPort, moduleArity(d, to))
			}
		} else if a.ToPort != -1 {
			return fail("etpn", "arc-port", "arc %d into non-module %s has port %d", a.ID, to.Name, a.ToPort)
		}
		// Input loads happen at the value's birth step — step 0 for a
		// primary input, before the first control step — and output ports
		// observe at the value's death step, which is Len+1 for a value
		// that outlives the schedule. Every other transfer must sit inside
		// the schedule proper.
		lo, hi := 1, d.Sched.Len
		if from.Kind == etpn.KindInPort {
			lo = 0
		}
		if to.Kind == etpn.KindOutPort {
			hi = d.Sched.Len + 1
		}
		for _, st := range a.Steps {
			if st < lo || st > hi {
				return fail("etpn", "arc-step-range", "arc %d active in step %d outside [%d, %d]", a.ID, st, lo, hi)
			}
		}
	}

	return allocation(d)
}

func moduleArity(d *etpn.Design, n *etpn.Node) int {
	max := 0
	for _, op := range n.Ops {
		if a := d.G.Node(op).Kind.Arity(); a > max {
			max = a
		}
	}
	return max
}

// allocation checks the allocation's internal consistency and re-proves
// register sharing legal from the lifetime intervals.
func allocation(d *etpn.Design) error {
	a := d.Alloc
	if a == nil {
		return fail("alloc", "non-nil", "nil allocation")
	}
	nn, nv := d.G.NumNodes(), d.G.NumValues()
	if len(a.ModuleOf) != nn || len(a.RegOf) != nv || len(d.Life) != nv {
		return fail("alloc", "binding-size", "ModuleOf has %d of %d operations, RegOf %d and Life %d of %d values",
			len(a.ModuleOf), nn, len(a.RegOf), len(d.Life), nv)
	}
	for i, m := range a.Modules {
		if m.ID != i {
			return fail("alloc", "module-ids-dense", "module at index %d has id %d", i, m.ID)
		}
		if len(m.Ops) == 0 {
			return fail("alloc", "module-nonempty", "module %d binds no operation", m.ID)
		}
		for _, op := range m.Ops {
			if got := a.ModuleOf[op]; got != m.ID {
				return fail("alloc", "module-ownership", "operation %s listed in module %d but ModuleOf says %d", d.G.Node(op).Name, m.ID, got)
			}
		}
	}
	// Operations in id order, so a design with several offenders always
	// names the same one.
	for id, m := range a.ModuleOf {
		op := dfg.NodeID(id)
		if m < 0 || m >= len(a.Modules) {
			return fail("alloc", "module-ids-dense", "operation %s bound to unknown module %d", d.G.Node(op).Name, m)
		}
		if !containsNode(a.Modules[m].Ops, op) {
			return fail("alloc", "module-ownership", "ModuleOf maps %s to module %d, which does not list it", d.G.Node(op).Name, m)
		}
	}
	for i, r := range a.Regs {
		if r.ID != i {
			return fail("alloc", "reg-ids-dense", "register at index %d has id %d", i, r.ID)
		}
		if len(r.Vals) == 0 {
			return fail("alloc", "reg-nonempty", "register %d holds no value", r.ID)
		}
		for _, v := range r.Vals {
			if got := a.RegOf[v]; got != r.ID {
				return fail("alloc", "reg-ownership", "value %s listed in register %d but RegOf says %d", d.G.Value(v).Name, r.ID, got)
			}
		}
		// The load-bearing invariant of register sharing: every pair of
		// values in one register must have disjoint lifetimes.
		for x := 0; x < len(r.Vals); x++ {
			for y := x + 1; y < len(r.Vals); y++ {
				vx, vy := r.Vals[x], r.Vals[y]
				ix, okx := d.Life.Of(vx)
				iy, oky := d.Life.Of(vy)
				if !okx || !oky {
					return fail("alloc", "reg-lifetime-known", "register %d holds a value with no lifetime interval", r.ID)
				}
				if alloc.Overlaps(ix, iy) {
					return fail("alloc", "reg-lifetime-disjoint",
						"register %d shares %s [%d,%d] and %s [%d,%d]",
						r.ID, d.G.Value(vx).Name, ix.Birth, ix.Death, d.G.Value(vy).Name, iy.Birth, iy.Death)
				}
			}
		}
	}
	// Values in id order; -1 marks a value held in no register.
	for id, r := range a.RegOf {
		v := dfg.ValueID(id)
		if r == -1 {
			continue
		}
		if r < 0 || r >= len(a.Regs) {
			return fail("alloc", "reg-ids-dense", "value %s bound to unknown register %d", d.G.Value(v).Name, r)
		}
		if !containsValue(a.Regs[r].Vals, v) {
			return fail("alloc", "reg-ownership", "RegOf maps %s to register %d, which does not list it", d.G.Value(v).Name, r)
		}
	}
	return nil
}

func containsNode(xs []dfg.NodeID, x dfg.NodeID) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func containsValue(xs []dfg.ValueID, x dfg.ValueID) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// Netlist checks a generated gate-level implementation: gate-graph
// structural sanity, combinational acyclicity (the netlist must levelize),
// bus completeness of the data ports, and — when a scan chain was
// requested — scan-chain completeness: the scan control ports exist, every
// scanned register bit has its flip-flop, the chain threads them in
// ScanRegs order, and scan_out observes the tail.
func Netlist(n *rtl.Netlist) error {
	if n == nil || n.C == nil {
		return fail("rtl", "non-nil", "nil netlist")
	}
	c := n.C
	if err := c.Validate(); err != nil {
		return &Error{Stage: "rtl", Invariant: "circuit-structure", Detail: err.Error()}
	}
	if _, err := c.Levelize(); err != nil {
		return &Error{Stage: "rtl", Invariant: "comb-acyclic", Detail: err.Error()}
	}
	for name, w := range n.DataIn {
		if err := checkBus(c, "input", name, w); err != nil {
			return err
		}
	}
	for name, w := range n.DataOut {
		if err := checkBus(c, "output", name, w); err != nil {
			return err
		}
	}
	if len(n.ScanRegs) > 0 {
		if err := scanChain(n); err != nil {
			return err
		}
	}
	return nil
}

func checkBus(c *gates.Circuit, role, name string, w gates.Word) error {
	for _, id := range w {
		if id < 0 || id >= len(c.Gates) {
			return fail("rtl", "bus-wiring", "%s bus %s references unknown gate %d", role, name, id)
		}
	}
	return nil
}

// scanChain re-proves the serial scan chain complete and correctly
// ordered by walking the structure: scan_en/scan_in/scan_out exist, every
// bit of every scanned register has a named flip-flop, each flip-flop's D
// cone contains the previous chain element (through the scan mux,
// whatever gate rewriting the optimizer did), and scan_out observes the
// chain tail.
func scanChain(n *rtl.Netlist) error {
	c := n.C
	inputs := map[string]int{}
	for _, id := range c.Inputs {
		inputs[c.Gates[id].Name] = id
	}
	dffs := map[string]int{}
	for _, id := range c.DFFs {
		dffs[c.Gates[id].Name] = id
	}
	scanEn, okEn := inputs["scan_en"]
	scanIn, okIn := inputs["scan_in"]
	if !okEn || !okIn {
		return fail("rtl", "scan-ports", "scan chain requested but scan_en/scan_in inputs missing")
	}
	outIdx := -1
	for i, name := range c.OutputNames {
		if name == "scan_out" {
			outIdx = i
		}
	}
	if outIdx < 0 {
		return fail("rtl", "scan-ports", "scan chain requested but scan_out output missing")
	}
	_ = scanEn

	// Walk the chain in declared order, proving each bit reachable from
	// the previous through its D cone.
	prev := scanIn
	for _, rid := range n.ScanRegs {
		for bit := 0; bit < n.Width; bit++ {
			name := fmt.Sprintf("r%d[%d]", rid, bit)
			ff, ok := dffs[name]
			if !ok {
				return fail("rtl", "scan-chain-complete", "scanned register bit %s has no flip-flop", name)
			}
			g := c.Gates[ff]
			if len(g.In) == 0 {
				return fail("rtl", "scan-chain-complete", "scanned flip-flop %s has no D input", name)
			}
			if !inCombCone(c, g.In[0], prev) {
				return fail("rtl", "scan-chain-order", "chain element before %s is not in its D cone", name)
			}
			prev = ff
		}
	}
	if !inCombCone(c, c.Outputs[outIdx], prev) {
		return fail("rtl", "scan-chain-order", "scan_out does not observe the chain tail")
	}
	return nil
}

// inCombCone reports whether target is reachable from root through
// combinational gates only (flip-flops and inputs are cone leaves, except
// target itself).
func inCombCone(c *gates.Circuit, root, target int) bool {
	seen := map[int]bool{}
	stack := []int{root}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if id == target {
			return true
		}
		if seen[id] {
			continue
		}
		seen[id] = true
		g := c.Gates[id]
		if g.Kind == gates.KDFF || g.Kind == gates.KInput {
			continue // sequential/primary boundary: stop, target not here
		}
		stack = append(stack, g.In...)
	}
	return false
}
