package etpn

// This file keeps the arc scans that the per-node arc index replaced,
// verbatim apart from names, as the reference arcs_diff_test.go compares
// against.

// RefArcsInto and RefArcsFrom export the reference to the external
// differential test, which needs the synthesis core to reach final designs.
var (
	RefArcsInto = (*Design).refArcsInto
	RefArcsFrom = (*Design).refArcsFrom
)

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
