package etpn

import (
	"fmt"

	"repro/internal/dfg"
)

// Simulate executes the design at register-transfer level for one pass of
// the behaviour (one loop body iteration): registers load primary inputs at
// the end of their birth steps, modules compute the operations scheduled in
// each control step reading their operands from registers or wired
// constants, and results are written back at step boundaries. It returns
// the primary outputs by name.
//
// Simulate is the semantics-preservation oracle: for a legal schedule and
// allocation its results must equal dfg.Interpret on the same inputs.
// It returns an error if an operand register does not hold the expected
// value, which indicates an illegal allocation or schedule.
func (d *Design) Simulate(width int, inputs map[string]uint64) (map[string]uint64, error) {
	g := d.G
	regVal := make([]uint64, len(d.Alloc.Regs))  // current contents
	regHolds := make([]dfg.ValueID, len(regVal)) // which value the register holds
	for i := range regHolds {
		regHolds[i] = dfg.NoValue
	}
	outs := map[string]uint64{}

	// Pending writes applied at the end of each step.
	type write struct {
		reg int
		v   dfg.ValueID
		x   uint64
	}
	loadAt := map[int][]write{} // step -> input loads
	for _, v := range g.Values() {
		if v.Kind != dfg.ValInput {
			continue
		}
		iv, stored := d.Life.Of(v.ID)
		if !stored {
			continue
		}
		x, ok := inputs[v.Name]
		if !ok {
			return nil, fmt.Errorf("etpn: missing input %q", v.Name)
		}
		loadAt[iv.Birth] = append(loadAt[iv.Birth], write{d.Alloc.RegOf[v.ID], v.ID, x & dfg.Mask(width)})
	}
	apply := func(ws []write) {
		for _, w := range ws {
			regVal[w.reg] = w.x
			regHolds[w.reg] = w.v
		}
	}
	readVal := func(v dfg.ValueID, at string) (uint64, error) {
		val := g.Value(v)
		if val.Kind == dfg.ValConst {
			return uint64(val.Const) & dfg.Mask(width), nil
		}
		r := d.Alloc.RegOf[v]
		if r < 0 {
			return 0, fmt.Errorf("etpn: value %s read at %s has no register", val.Name, at)
		}
		if regHolds[r] != v {
			holds := "nothing"
			if regHolds[r] != dfg.NoValue {
				holds = g.Value(regHolds[r]).Name
			}
			return 0, fmt.Errorf("etpn: register R%d holds %s, not %s, at %s (allocation clobbered a live value)",
				r, holds, val.Name, at)
		}
		return regVal[r], nil
	}

	apply(loadAt[0])
	for step := 1; step <= d.Sched.Len; step++ {
		var writes []write
		for _, nid := range d.Sched.OpsAt(step) {
			n := g.Node(nid)
			ops := make([]uint64, len(n.In))
			for i, v := range n.In {
				x, err := readVal(v, fmt.Sprintf("step %d op %s", step, n.Name))
				if err != nil {
					return nil, err
				}
				ops[i] = x
			}
			res := dfg.Eval(n.Kind, width, ops...)
			out := g.Value(n.Out)
			if r := d.Alloc.RegOf[n.Out]; r >= 0 {
				writes = append(writes, write{r, n.Out, res})
			}
			if out.IsOutput {
				outs[out.Name] = res
			}
		}
		apply(writes)
		apply(loadAt[step])
		// Verify output registers still hold their values at death (the
		// observation point) for outputs whose death is this step.
		for _, v := range g.Values() {
			if !v.IsOutput || v.Kind == dfg.ValConst {
				continue
			}
			iv, stored := d.Life.Of(v.ID)
			if stored && iv.Death == step+1 {
				// Value observed at the start of the next step; check now
				// that the register still holds it after this step's writes.
				if r := d.Alloc.RegOf[v.ID]; r >= 0 && regHolds[r] != v.ID && iv.Birth <= step {
					return nil, fmt.Errorf("etpn: output %s clobbered before observation", v.Name)
				}
			}
		}
	}
	// Pass-through outputs (inputs marked as outputs).
	for _, v := range g.Values() {
		if v.Kind == dfg.ValInput && v.IsOutput {
			outs[v.Name] = inputs[v.Name] & dfg.Mask(width)
		}
	}
	return outs, nil
}
