package etpn

// This file keeps the arc scans that the per-node arc index replaced,
// verbatim apart from names, as the reference arcs_diff_test.go compares
// against, the map-based Validate with its differential test, and the
// map-based mux count, which cost.Estimator's count is compared with.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dfg"
)

// RefArcsInto and RefArcsFrom export the reference to the external
// differential test, which needs the synthesis core to reach final designs.
var (
	RefArcsInto = (*Design).refArcsInto
	RefArcsFrom = (*Design).refArcsFrom
	RefMuxStats = (*Design).refMuxStats
)

// refMuxStats counts, for every module operand port and register input,
// the distinct data sources; each destination fed by more than one source
// needs a multiplexer with that many inputs. It returns the number of
// multiplexers and their total inputs.
func (d *Design) refMuxStats() (muxes, inputs int) {
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
	for _, set := range srcs {
		if len(set) > 1 {
			muxes++
			inputs += len(set)
		}
	}
	return muxes, inputs
}

// refArcsInto returns the arcs terminating at node id, ascending by arc id.
func (d *Design) refArcsInto(id int) []*Arc {
	var out []*Arc
	for _, a := range d.Arcs {
		if a.To == id {
			out = append(out, a)
		}
	}
	return out
}

// refArcsFrom returns the arcs originating at node id, ascending by arc id.
func (d *Design) refArcsFrom(id int) []*Arc {
	var out []*Arc
	for _, a := range d.Arcs {
		if a.From == id {
			out = append(out, a)
		}
	}
	return out
}

// refValidate is the map-based Validate that the sorted and pairwise
// scans replaced, verbatim but for the control-net check Validate no
// longer has: it names whichever double-written step of a register the map
// order reaches first.
func (d *Design) refValidate() error {
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
	return nil
}

// TestValidateMatchesReference corrupts the default left-edge designs of
// every named benchmark — double writes into one or two registers, or two
// operations of a module moved into one step — and checks that Validate
// rejects exactly what the reference rejects. A module clash is named the
// same way by both; a double write is checked against every register and
// step the reference could name.
func TestValidateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, name := range dfg.BenchmarkNames() {
		for trial := 0; trial < 30; trial++ {
			g, _ := dfg.ByName(name, 8)
			d := buildDefault(t, g, "")
			switch trial % 3 {
			case 1, 2:
				// Collapse every write into trial%3 registers onto one step.
				for k := 0; k < trial%3; k++ {
					n := d.Nodes[rng.Intn(len(d.Nodes))]
					if n.Kind != KindRegister {
						continue
					}
					st := rng.Intn(d.Sched.Len + 1)
					for _, a := range d.ArcsInto(n.ID) {
						for i := range a.Steps {
							a.Steps[i] = st
						}
					}
				}
			default:
				for _, n := range d.Nodes {
					if n.Kind == KindModule && len(n.Ops) >= 2 && rng.Intn(2) == 0 {
						d.Sched.Step[n.Ops[1]] = d.Sched.Step[n.Ops[0]]
					}
				}
			}
			got, ref := d.Validate(), d.refValidate()
			if (got == nil) != (ref == nil) {
				t.Fatalf("%s trial %d: got %v, reference %v", name, trial, got, ref)
			}
			if got == nil || got.Error() == ref.Error() {
				continue
			}
			possible := map[string]bool{}
			for _, n := range d.Nodes {
				if n.Kind != KindRegister {
					continue
				}
				writes := map[int]int{}
				for _, a := range d.ArcsInto(n.ID) {
					for _, st := range a.Steps {
						writes[st]++
					}
				}
				for st, c := range writes {
					if c > 1 {
						possible[fmt.Sprintf("etpn: register %s written %d times in step %d", n.Name, c, st)] = true
					}
				}
			}
			if !possible[got.Error()] || !possible[ref.Error()] {
				t.Fatalf("%s trial %d: %v / reference %v not among the double writes %v", name, trial, got, ref, possible)
			}
		}
	}
}
