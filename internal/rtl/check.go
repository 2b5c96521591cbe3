package rtl

import (
	"fmt"

	"repro/internal/gates"
	"repro/internal/validate"
)

// checked passes every netlist the generators return through check, so
// a netlist that breaks its interface invariants is never handed out.
func checked(n *Netlist, err error) (*Netlist, error) {
	if err == nil {
		err = n.check()
	}
	if err != nil {
		return nil, err
	}
	return n, nil
}

func violation(invariant, format string, args ...any) error {
	return &validate.Error{Stage: "rtl", Invariant: invariant, Detail: fmt.Sprintf(format, args...)}
}

// check re-proves the netlist's interface from its gate graph: every data
// bus references a gate of the circuit and, when a scan chain was
// requested, the chain is complete and ordered and scan_en steers it.
// Gate-graph sanity and combinational acyclicity are not re-checked: the
// optimizer that produced n.C checks both as its last step. A violation
// is a typed *validate.Error of stage "rtl".
func (n *Netlist) check() error {
	for name, w := range n.DataIn {
		if err := checkBus(n.C, "input", name, w); err != nil {
			return err
		}
	}
	for name, w := range n.DataOut {
		if err := checkBus(n.C, "output", name, w); err != nil {
			return err
		}
	}
	if len(n.ScanRegs) > 0 {
		return n.checkScanChain()
	}
	return nil
}

func checkBus(c *gates.Circuit, role, name string, w gates.Word) error {
	for _, id := range w {
		if id < 0 || id >= len(c.Gates) {
			return violation("bus-wiring", "%s bus %s references unknown gate %d", role, name, id)
		}
	}
	return nil
}

// checkScanChain re-proves the serial scan chain complete and correctly
// ordered by walking the structure: scan_en/scan_in/scan_out exist, every
// bit of every scanned register has a named flip-flop, each flip-flop's D
// cone contains scan_en and the previous chain element (through the scan
// mux, whatever gate rewriting the optimizer did), and scan_out observes
// the chain tail.
func (n *Netlist) checkScanChain() error {
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
		return violation("scan-ports", "scan chain requested but scan_en/scan_in inputs missing")
	}
	outIdx := -1
	for i, name := range c.OutputNames {
		if name == "scan_out" {
			outIdx = i
		}
	}
	if outIdx < 0 {
		return violation("scan-ports", "scan chain requested but scan_out output missing")
	}

	// Walk the chain in declared order, proving each bit reachable from
	// the previous through its D cone.
	prev := scanIn
	for _, rid := range n.ScanRegs {
		for bit := 0; bit < n.Width; bit++ {
			name := fmt.Sprintf("r%d[%d]", rid, bit)
			ff, ok := dffs[name]
			if !ok {
				return violation("scan-chain-complete", "scanned register bit %s has no flip-flop", name)
			}
			g := c.Gates[ff]
			if len(g.In) == 0 {
				return violation("scan-chain-complete", "scanned flip-flop %s has no D input", name)
			}
			if !inCombCone(c, g.In[0], prev) {
				return violation("scan-chain-order", "chain element before %s is not in its D cone", name)
			}
			if !inCombCone(c, g.In[0], scanEn) {
				return violation("scan-chain-enable", "scan_en is not in the D cone of %s", name)
			}
			prev = ff
		}
	}
	if !inCombCone(c, c.Outputs[outIdx], prev) {
		return violation("scan-chain-order", "scan_out does not observe the chain tail")
	}
	return nil
}

// inCombCone reports whether target is reachable from root through
// combinational gates only (flip-flops and inputs are cone leaves, except
// target itself). The search is breadth first, so a scan mux right above
// a flip-flop's D answers without walking the functional logic behind it.
func inCombCone(c *gates.Circuit, root, target int) bool {
	seen := map[int]bool{root: true}
	queue := []int{root}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		if id == target {
			return true
		}
		g := c.Gates[id]
		if g.Kind == gates.KDFF || g.Kind == gates.KInput {
			continue // sequential/primary boundary: stop, target not here
		}
		for _, in := range g.In {
			if !seen[in] {
				seen[in] = true
				queue = append(queue, in)
			}
		}
	}
	return false
}
