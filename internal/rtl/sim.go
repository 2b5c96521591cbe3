package rtl

import (
	"fmt"

	"repro/internal/dfg"
	"repro/internal/logicsim"
)

// SimulatePass runs one full schedule pass of a NormalMode netlist at gate
// level: the data inputs are held constant, the FSM sequences the control
// lines, and each primary output is sampled at its valid cycle. It returns
// the output values by name — the gate-level counterpart of
// etpn.Design.Simulate and dfg.Graph.Interpret.
func (n *Netlist) SimulatePass(inputs map[string]uint64) (map[string]uint64, error) {
	if n.Mode != NormalMode {
		return nil, fmt.Errorf("rtl: SimulatePass requires a NormalMode netlist")
	}
	p, err := n.C.Compile()
	if err != nil {
		return nil, err
	}
	sim := logicsim.New(p)
	// Assemble the constant PI vector (lane 0 carries the pass).
	piPos := make(map[int]int, len(n.C.Inputs))
	for i, id := range n.C.Inputs {
		piPos[id] = i
	}
	pi := make([]uint64, len(n.C.Inputs))
	mask := dfg.Mask(n.Width)
	for name, bus := range n.DataIn {
		v, ok := inputs[name]
		if !ok {
			return nil, fmt.Errorf("rtl: missing input %q", name)
		}
		words := logicsim.BusWords(v&mask, n.Width)
		for bit, g := range bus {
			pi[piPos[g]] = words[bit]
		}
	}
	// Output sample bookkeeping.
	poPos := make(map[int]int, len(n.C.Outputs))
	for i, id := range n.C.Outputs {
		poPos[id] = i
	}
	maxCycle := 0
	for _, cyc := range n.SampleCycle {
		if cyc > maxCycle {
			maxCycle = cyc
		}
	}
	out := map[string]uint64{}
	sim.Reset()
	for t := 0; t <= maxCycle; t++ {
		po := sim.Step(pi)
		for name, cyc := range n.SampleCycle {
			if cyc != t {
				continue
			}
			var v uint64
			for bit, g := range n.DataOut[name] {
				if po[poPos[g]]&1 != 0 {
					v |= 1 << uint(bit)
				}
			}
			out[name] = v
		}
	}
	return out, nil
}
