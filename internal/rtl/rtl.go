// Package rtl generates a gate-level netlist from a synthesized ETPN
// design: registers become DFF words, functional modules become arithmetic
// units (with one-hot operation selects when a module hosts several
// operation kinds), allocation-induced multiplexers become one-hot mux
// trees, and the control part becomes either
//
//   - a one-hot FSM controller with one state per control step of the
//     schedule (NormalMode), or
//   - test-mode primary inputs (TestMode): the paper assumes "the
//     controller can be modified to support the test plan" (§1), which the
//     high-level test synthesis literature realizes by giving the tester
//     direct control of the data-path control lines. Sequential depth —
//     the paper's central testability quantity — is preserved exactly:
//     registers can still only be reached through their actual data
//     sources.
package rtl

import (
	"fmt"
	"sort"

	"repro/internal/dfg"
	"repro/internal/etpn"
	"repro/internal/exec"
	"repro/internal/gates"
)

// Mode selects the controller realization.
type Mode int

// Controller modes.
const (
	NormalMode Mode = iota
	TestMode
)

// CtrlSignal describes one control line.
type CtrlSignal struct {
	Name string
	// PI is the primary-input gate id in TestMode; -1 in NormalMode.
	PI int
	// ActiveSteps lists the control steps (1-based; 0 = the load phase)
	// in which the signal is asserted by the schedule.
	ActiveSteps []int
}

// Netlist is the generated circuit with its interface metadata.
type Netlist struct {
	C     *gates.Circuit
	Width int
	Mode  Mode

	// DataIn maps input value names to their PI buses.
	DataIn map[string]gates.Word
	// DataOut maps output value names to their PO buses.
	DataOut map[string]gates.Word
	// SampleCycle maps each output name to the clock cycle (0-based; cycle
	// t spans control step t) at which its value is valid for observation.
	SampleCycle map[string]int
	// Ctrl lists every control signal in deterministic order.
	Ctrl []CtrlSignal
	// Steps is the schedule length; a full pass takes Steps+1 cycles
	// (cycle 0 is the load phase for inputs consumed in step 1).
	Steps int
	// ScanRegs lists the allocation register ids on the scan chain, in
	// chain order; empty when no scan was requested.
	ScanRegs []int
	// BISTTpg and BISTMisr list the registers reconfigured as pattern
	// generators and signature registers by GenerateBIST.
	BISTTpg  []int
	BISTMisr []int
}

// ATPGFrames returns the time-frame window an ATPG campaign on n
// searches, given the configured one: at least two full passes,
// 2·(Steps+1) cycles, so a fault excited in one pass can still reach an
// output in the next.
func (n *Netlist) ATPGFrames(maxFrames int) int {
	return max(maxFrames, 2*(n.Steps+1))
}

// Generate builds the gate-level netlist of d at the given bit width.
func Generate(d *etpn.Design, width int, mode Mode) (*Netlist, error) {
	return GenerateWithScan(d, width, mode, nil)
}

// GenerateWithScan is Generate plus a serial scan chain threaded through
// the given allocation registers (in order, LSB first within each): a
// scan_en primary input switches every scanned flip-flop's D between its
// functional source and the previous chain bit, scan_in feeds the head,
// and scan_out observes the tail. Partial scan per package scan.
// GenerateWithScan is a public library boundary: an internal panic while
// building the netlist (malformed designs can violate builder invariants)
// is recovered and returned as an *exec.ExecError rather than unwinding
// into the caller.
func GenerateWithScan(d *etpn.Design, width int, mode Mode, scanRegs []int) (*Netlist, error) {
	return exec.Guard1("rtl.generate", -1, func() (*Netlist, error) {
		return generateWithScan(d, width, mode, scanRegs)
	})
}

func generateWithScan(d *etpn.Design, width int, mode Mode, scanRegs []int) (*Netlist, error) {
	nl, err := generateCaptured(d, width, mode, scanRegs, func(b *gates.Builder, regBus []gates.Word, funcD []gates.Word) error {
		if len(scanRegs) == 0 {
			return nil
		}
		scanEn := b.Input("scan_en")
		chain := b.Input("scan_in")
		for _, rid := range scanRegs {
			q := regBus[rid]
			for bit := range q {
				dd := b.Mux2(scanEn, chain, funcD[rid][bit])
				b.SetD(q[bit], dd)
				chain = q[bit]
			}
		}
		b.Output("scan_out", chain)
		return nil
	})
	if err != nil {
		return nil, err
	}
	nl.ScanRegs = append(nl.ScanRegs, scanRegs...)
	return nl, nil
}

// generateCaptured builds the netlist, leaving the D inputs of the
// `captured` registers unwired and handing their functional D words to
// the wire callback, which must complete the wiring (scan chains, BIST
// structures, ...).
func generateCaptured(d *etpn.Design, width int, mode Mode, captured []int, wire func(b *gates.Builder, regBus, funcD []gates.Word) error) (*Netlist, error) {
	g := d.G
	b := gates.NewBuilder()
	n := &Netlist{
		Width: width, Mode: mode,
		DataIn:      map[string]gates.Word{},
		DataOut:     map[string]gates.Word{},
		SampleCycle: map[string]int{},
		Steps:       d.Sched.Len,
	}

	// Control-line factory: in TestMode every control line is a PI; in
	// NormalMode it is an OR over the one-hot FSM state bits of its active
	// steps. FSM state nets are created lazily below.
	var stateNet func(step int) int
	ctrl := func(name string, activeSteps []int) int {
		sort.Ints(activeSteps)
		cs := CtrlSignal{Name: name, PI: -1, ActiveSteps: activeSteps}
		var net int
		if mode == TestMode {
			net = b.Input("ctl_" + name)
			cs.PI = net
		} else {
			terms := make([]int, 0, len(activeSteps))
			for _, s := range activeSteps {
				terms = append(terms, stateNet(s))
			}
			switch len(terms) {
			case 0:
				net = b.Const(false)
			case 1:
				net = b.Buf(terms[0])
			default:
				net = b.Or(terms...)
			}
		}
		n.Ctrl = append(n.Ctrl, cs)
		return net
	}

	// FSM: one-hot state register s1..sLen. At reset all bits are zero,
	// which is the load phase (cycle 0); s1 fires in cycle 1 via the NOR
	// of all state bits, and the machine idles back to the load phase
	// after sLen, repeating the schedule.
	var stateBits []int
	if mode == NormalMode {
		stateBits = make([]int, d.Sched.Len+1)
		for s := 1; s <= d.Sched.Len; s++ {
			stateBits[s] = b.DFF(fmt.Sprintf("fsm_s%d", s))
		}
		var idle int
		if d.Sched.Len == 1 {
			idle = b.Not(stateBits[1])
		} else {
			idle = b.Nor(stateBits[1:]...)
		}
		b.SetD(stateBits[1], idle)
		for s := 2; s <= d.Sched.Len; s++ {
			b.SetD(stateBits[s], stateBits[s-1])
		}
		stateNet = func(step int) int {
			if step == 0 {
				return idle
			}
			return stateBits[step]
		}
	}

	// Data sources: PI buses for inputs, constant buses, register DFFs.
	inBus := map[dfg.ValueID]gates.Word{}
	constBus := map[dfg.ValueID]gates.Word{}
	for _, v := range g.Values() {
		switch v.Kind {
		case dfg.ValInput:
			w := b.InputWord("in_"+v.Name, width)
			inBus[v.ID] = w
			n.DataIn[v.Name] = w
		case dfg.ValConst:
			constBus[v.ID] = b.ConstWord(uint64(v.Const), width)
		}
	}
	regBus := make([]gates.Word, len(d.Alloc.Regs))
	for _, r := range d.Alloc.Regs {
		regBus[r.ID] = b.DFFWord(fmt.Sprintf("r%d", r.ID), width)
	}

	// nodeBus resolves a data-path node to the bus it drives.
	modBus := make([]gates.Word, len(d.Alloc.Modules))
	nodeBus := func(id int) (gates.Word, error) {
		nd := d.Nodes[id]
		switch nd.Kind {
		case etpn.KindInPort:
			return inBus[nd.Value], nil
		case etpn.KindConst:
			return constBus[nd.Value], nil
		case etpn.KindRegister:
			return regBus[regIndex(d, id)], nil
		case etpn.KindModule:
			w := modBus[modIndex(d, id)]
			if w == nil {
				return nil, fmt.Errorf("rtl: module %s used before built", nd.Name)
			}
			return w, nil
		}
		return nil, fmt.Errorf("rtl: node %s cannot drive a bus", nd.Name)
	}

	// Functional modules: operand-port muxes plus the operation units.
	for _, m := range d.Alloc.Modules {
		modNode := d.ModNode(m.ID)
		ports, err := buildPorts(d, b, modNode, m.ID, nodeBus, ctrl)
		if err != nil {
			return nil, err
		}
		// One unit per distinct operation kind; one-hot op select when the
		// module hosts several kinds (the CAMAD ALU case).
		kinds, kindSteps := moduleKinds(d, m.Ops)
		var results []gates.Word
		var sels []int
		for _, k := range kinds {
			var res gates.Word
			var err error
			if k.Arity() == 1 {
				res, err = b.OpUnary(k, ports[0])
			} else {
				res, err = b.Op(k, ports[0], ports[1])
			}
			if err != nil {
				return nil, fmt.Errorf("rtl: module M%d: %w", m.ID, err)
			}
			results = append(results, res)
			if len(kinds) > 1 {
				sels = append(sels, ctrl(fmt.Sprintf("op_m%d_%s", m.ID, opName(k)), kindSteps[k]))
			}
		}
		if len(results) == 1 {
			modBus[m.ID] = results[0]
		} else {
			modBus[m.ID] = b.MuxOneHot(sels, results)
		}
	}

	// Registers: load-enable logic over their sources. Captured registers
	// get their functional D collected here and wired by the callback.
	scanSet := map[int]bool{}
	for _, r := range captured {
		if r < 0 || r >= len(d.Alloc.Regs) {
			return nil, fmt.Errorf("rtl: scan register %d out of range", r)
		}
		if scanSet[r] {
			return nil, fmt.Errorf("rtl: scan register %d listed twice", r)
		}
		scanSet[r] = true
	}
	funcD := make([]gates.Word, len(d.Alloc.Regs))
	for _, r := range d.Alloc.Regs {
		regNode := d.RegNode(r.ID)
		type src struct {
			bus   gates.Word
			sel   int
			steps []int
		}
		var srcs []src
		for _, a := range d.ArcsInto(regNode) {
			bus, err := nodeBus(a.From)
			if err != nil {
				return nil, err
			}
			sel := ctrl(fmt.Sprintf("ld_r%d_from_%s", r.ID, nodeLabel(d, a.From)), append([]int(nil), a.Steps...))
			srcs = append(srcs, src{bus, sel, a.Steps})
		}
		q := regBus[r.ID]
		var dIn gates.Word
		switch len(srcs) {
		case 0:
			dIn = q // never written: holds forever
		case 1:
			dIn = b.Mux2W(srcs[0].sel, srcs[0].bus, q)
		default:
			sels := make([]int, len(srcs))
			buses := make([]gates.Word, len(srcs))
			for i, s := range srcs {
				sels[i] = s.sel
				buses[i] = s.bus
			}
			anyLoad := b.Or(sels...)
			dIn = b.Mux2W(anyLoad, b.MuxOneHot(sels, buses), q)
		}
		if scanSet[r.ID] {
			funcD[r.ID] = dIn
		} else {
			b.SetDWord(q, dIn)
		}
	}
	// Captured registers: scan chains, BIST structures, etc.
	if wire != nil {
		if err := wire(b, regBus, funcD); err != nil {
			return nil, err
		}
	}

	// Primary outputs: the register (or module) feeding each out port.
	for _, v := range g.Values() {
		if !v.IsOutput {
			continue
		}
		var bus gates.Word
		if r := d.Alloc.RegOf[v.ID]; r >= 0 {
			bus = regBus[r]
			n.SampleCycle[v.Name] = d.Life[v.ID].Birth + 1
		} else if v.Kind == dfg.ValInput {
			bus = inBus[v.ID]
			n.SampleCycle[v.Name] = 0
		} else {
			bus = modBus[d.Alloc.ModuleOf[g.Value(v.ID).Def]]
			n.SampleCycle[v.Name] = d.Sched.Step[v.Def]
		}
		b.OutputWord("out_"+v.Name, bus)
		n.DataOut[v.Name] = bus
	}

	c, err := b.Done()
	if err != nil {
		return nil, err
	}
	// Back-end cleanup: constant folding and dead-logic sweep, as a logic
	// synthesizer would perform (constant coefficients collapse large
	// parts of their multipliers). Interface metadata is remapped.
	opt, remap, err := gates.Optimize(c)
	if err != nil {
		return nil, err
	}
	remapWord := func(w gates.Word) (gates.Word, error) {
		out := make(gates.Word, len(w))
		for i, id := range w {
			if remap[id] < 0 {
				return nil, fmt.Errorf("rtl: interface net %d optimized away", id)
			}
			out[i] = remap[id]
		}
		return out, nil
	}
	for name, w := range n.DataIn {
		nw, err := remapWord(w)
		if err != nil {
			return nil, err
		}
		n.DataIn[name] = nw
	}
	for name, w := range n.DataOut {
		nw, err := remapWord(w)
		if err != nil {
			return nil, err
		}
		n.DataOut[name] = nw
	}
	for i := range n.Ctrl {
		if n.Ctrl[i].PI >= 0 {
			n.Ctrl[i].PI = remap[n.Ctrl[i].PI]
		}
	}
	n.C = opt
	return n, nil
}

// buildPorts constructs the operand buses of a module, inserting one-hot
// muxes where a port has several sources.
func buildPorts(d *etpn.Design, b *gates.Builder, modNode, modID int, nodeBus func(int) (gates.Word, error), ctrl func(string, []int) int) (map[int]gates.Word, error) {
	type src struct {
		from  int
		steps []int
	}
	ports := map[int][]src{}
	for _, a := range d.ArcsInto(modNode) {
		ports[a.ToPort] = append(ports[a.ToPort], src{a.From, a.Steps})
	}
	out := map[int]gates.Word{}
	// Build ports in sorted order: the loop creates gates, so iterating the
	// map directly would let Go's randomized map order leak into the gate
	// numbering of the netlist (same function, different structure run to
	// run — and a different PODEM search trajectory).
	portIDs := make([]int, 0, len(ports))
	for port := range ports {
		portIDs = append(portIDs, port)
	}
	sort.Ints(portIDs)
	for _, port := range portIDs {
		srcs := ports[port]
		sort.Slice(srcs, func(i, j int) bool { return srcs[i].from < srcs[j].from })
		if len(srcs) == 1 {
			bus, err := nodeBus(srcs[0].from)
			if err != nil {
				return nil, err
			}
			out[port] = bus
			continue
		}
		sels := make([]int, len(srcs))
		buses := make([]gates.Word, len(srcs))
		for i, s := range srcs {
			bus, err := nodeBus(s.from)
			if err != nil {
				return nil, err
			}
			buses[i] = bus
			sels[i] = ctrl(fmt.Sprintf("sel_m%d_p%d_%s", modID, port, nodeLabel(d, s.from)), append([]int(nil), s.steps...))
		}
		out[port] = b.MuxOneHot(sels, buses)
	}
	return out, nil
}

// moduleKinds returns the distinct operation kinds of a module (sorted for
// determinism) and the control steps in which each kind executes.
func moduleKinds(d *etpn.Design, ops []dfg.NodeID) ([]dfg.OpKind, map[dfg.OpKind][]int) {
	steps := map[dfg.OpKind][]int{}
	var kinds []dfg.OpKind
	for _, op := range ops {
		k := d.G.Node(op).Kind
		if _, ok := steps[k]; !ok {
			kinds = append(kinds, k)
		}
		steps[k] = append(steps[k], d.Sched.Step[op])
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	return kinds, steps
}

func regIndex(d *etpn.Design, nodeID int) int {
	for _, r := range d.Alloc.Regs {
		if d.RegNode(r.ID) == nodeID {
			return r.ID
		}
	}
	panic("rtl: node is not a register")
}

func modIndex(d *etpn.Design, nodeID int) int {
	for _, m := range d.Alloc.Modules {
		if d.ModNode(m.ID) == nodeID {
			return m.ID
		}
	}
	panic("rtl: node is not a module")
}

func nodeLabel(d *etpn.Design, id int) string {
	nd := d.Nodes[id]
	switch nd.Kind {
	case etpn.KindRegister:
		return fmt.Sprintf("r%d", regIndex(d, id))
	case etpn.KindModule:
		return fmt.Sprintf("m%d", modIndex(d, id))
	case etpn.KindInPort:
		return "in_" + d.G.Value(nd.Value).Name
	case etpn.KindConst:
		return "c_" + d.G.Value(nd.Value).Name
	}
	return fmt.Sprintf("n%d", id)
}

// opName renders an operation kind as an identifier-safe token.
func opName(k dfg.OpKind) string {
	switch k {
	case dfg.OpAdd:
		return "add"
	case dfg.OpSub:
		return "sub"
	case dfg.OpMul:
		return "mul"
	case dfg.OpLt:
		return "lt"
	case dfg.OpGt:
		return "gt"
	case dfg.OpEq:
		return "eq"
	case dfg.OpAnd:
		return "and"
	case dfg.OpOr:
		return "or"
	case dfg.OpXor:
		return "xor"
	case dfg.OpNot:
		return "not"
	case dfg.OpMov:
		return "mov"
	default:
		return fmt.Sprintf("op%d", int(k))
	}
}
