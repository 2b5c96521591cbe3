package validate

// This file keeps the allocation checker the id-ordered ownership walks
// replaced, as the reference validate_test.go compares against.

import (
	"repro/internal/alloc"
	"repro/internal/dfg"
	"repro/internal/etpn"
)

// Allocation and RefAllocation export the checker and its reference to the
// external differential test, which needs the synthesis core.
var (
	Allocation    = allocation
	RefAllocation = refAllocation
)

// refAllocation is allocation as it was when ModuleOf, RegOf and Life were
// maps, verbatim apart from rebuilding those maps from the dense bindings
// (an absent key was an unbound operation or unstored value). Its second
// ownership walks visit the maps in map order, so with several offenders
// the one it names varies from call to call.
func refAllocation(d *etpn.Design) error {
	a := d.Alloc
	if a == nil {
		return fail("alloc", "non-nil", "nil allocation")
	}
	moduleOf := map[dfg.NodeID]int{}
	for op, m := range a.ModuleOf {
		if m >= 0 {
			moduleOf[dfg.NodeID(op)] = m
		}
	}
	regOf := map[dfg.ValueID]int{}
	for v, r := range a.RegOf {
		if r >= 0 {
			regOf[dfg.ValueID(v)] = r
		}
	}
	life := map[dfg.ValueID]alloc.Interval{}
	for v, l := range d.Life {
		if l.Stored {
			life[dfg.ValueID(v)] = l.Interval
		}
	}
	for i, m := range a.Modules {
		if m.ID != i {
			return fail("alloc", "module-ids-dense", "module at index %d has id %d", i, m.ID)
		}
		if len(m.Ops) == 0 {
			return fail("alloc", "module-nonempty", "module %d binds no operation", m.ID)
		}
		for _, op := range m.Ops {
			if got, ok := moduleOf[op]; !ok || got != m.ID {
				return fail("alloc", "module-ownership", "operation %s listed in module %d but ModuleOf says %d", d.G.Node(op).Name, m.ID, got)
			}
		}
	}
	for op, m := range moduleOf {
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
			if got, ok := regOf[v]; !ok || got != r.ID {
				return fail("alloc", "reg-ownership", "value %s listed in register %d but RegOf says %d", d.G.Value(v).Name, r.ID, got)
			}
		}
		for x := 0; x < len(r.Vals); x++ {
			for y := x + 1; y < len(r.Vals); y++ {
				vx, vy := r.Vals[x], r.Vals[y]
				ix, okx := life[vx]
				iy, oky := life[vy]
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
	for v, r := range regOf {
		if r < 0 || r >= len(a.Regs) {
			return fail("alloc", "reg-ids-dense", "value %s bound to unknown register %d", d.G.Value(v).Name, r)
		}
		if !containsValue(a.Regs[r].Vals, v) {
			return fail("alloc", "reg-ownership", "RegOf maps %s to register %d, which does not list it", d.G.Value(v).Name, r)
		}
	}
	return nil
}
