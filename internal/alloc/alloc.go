package alloc

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/dfg"
	"repro/internal/sched"
)

// Allocation is a binding of operations to functional modules and values
// to registers. Module and register ids are dense indices into Modules and
// Registers. It corresponds to the data-path node grouping of the ETPN
// representation: each module/register group becomes one data-path node.
type Allocation struct {
	// ModuleOf is indexed by dfg.NodeID: the module executing each
	// operation.
	ModuleOf []int
	Modules  []*ModuleGroup
	// RegOf is indexed by dfg.ValueID: the register holding each value, -1
	// for a value in no register (constants, dead inputs, and results that
	// go straight to an output port).
	RegOf []int
	Regs  []*RegGroup
}

// newAllocation returns an allocation of g with every operation and value
// unbound (-1).
func newAllocation(g *dfg.Graph) *Allocation {
	a := &Allocation{ModuleOf: make([]int, g.NumNodes()), RegOf: make([]int, g.NumValues())}
	for i := range a.ModuleOf {
		a.ModuleOf[i] = -1
	}
	for i := range a.RegOf {
		a.RegOf[i] = -1
	}
	return a
}

// ModuleGroup is one functional module and the operations bound to it.
type ModuleGroup struct {
	ID    int
	Class string
	Ops   []dfg.NodeID
}

// RegGroup is one register and the values bound to it.
type RegGroup struct {
	ID   int
	Vals []dfg.ValueID
}

// Default returns the default allocation generated by the front end
// (paper §3): every operation instance in its own module and every
// register-allocated value in its own register.
func Default(g *dfg.Graph, class sched.ClassFunc, life Life) *Allocation {
	if class == nil {
		class = sched.ExactClass
	}
	a := newAllocation(g)
	for _, n := range g.Nodes() {
		id := len(a.Modules)
		a.Modules = append(a.Modules, &ModuleGroup{ID: id, Class: class(n.Kind), Ops: []dfg.NodeID{n.ID}})
		a.ModuleOf[n.ID] = id
	}
	for _, v := range g.Values() {
		if !life[v.ID].Stored {
			continue
		}
		id := len(a.Regs)
		a.Regs = append(a.Regs, &RegGroup{ID: id, Vals: []dfg.ValueID{v.ID}})
		a.RegOf[v.ID] = id
	}
	return a
}

// Clone returns a deep copy. ModuleOf and RegOf share one backing array,
// as do the groups, and their operation and value lists; the lists are
// capacity-capped, so growing one never writes into another.
func (a *Allocation) Clone() *Allocation {
	nn := len(a.ModuleOf)
	ids := make([]int, nn+len(a.RegOf))
	copy(ids, a.ModuleOf)
	copy(ids[nn:], a.RegOf)
	c := &Allocation{
		ModuleOf: ids[:nn:nn],
		Modules:  make([]*ModuleGroup, len(a.Modules)),
		RegOf:    ids[nn:],
		Regs:     make([]*RegGroup, len(a.Regs)),
	}
	mods := make([]ModuleGroup, len(a.Modules))
	nOps := 0
	for _, m := range a.Modules {
		nOps += len(m.Ops)
	}
	ops := make([]dfg.NodeID, 0, nOps)
	for i, m := range a.Modules {
		start := len(ops)
		ops = append(ops, m.Ops...)
		mods[i] = ModuleGroup{ID: m.ID, Class: m.Class, Ops: ops[start:len(ops):len(ops)]}
		c.Modules[i] = &mods[i]
	}
	regs := make([]RegGroup, len(a.Regs))
	nVals := 0
	for _, r := range a.Regs {
		nVals += len(r.Vals)
	}
	vals := make([]dfg.ValueID, 0, nVals)
	for i, r := range a.Regs {
		start := len(vals)
		vals = append(vals, r.Vals...)
		regs[i] = RegGroup{ID: r.ID, Vals: vals[start:len(vals):len(vals)]}
		c.Regs[i] = &regs[i]
	}
	return c
}

// MergeModules folds module j into module i (paper §4: all operations
// assigned to the two modules are reassigned to one). Module ids are
// recompacted; the merged module keeps index min(i,j).
func (a *Allocation) MergeModules(i, j int) error {
	if i == j {
		return fmt.Errorf("alloc: cannot merge module %d with itself", i)
	}
	mi, mj := a.Modules[i], a.Modules[j]
	if mi.Class != mj.Class {
		return fmt.Errorf("alloc: modules %d (%s) and %d (%s) are class-incompatible", i, mi.Class, j, mj.Class)
	}
	if i > j {
		i, j = j, i
		mi, mj = mj, mi
	}
	mi.Ops = append(mi.Ops, mj.Ops...)
	slices.Sort(mi.Ops)
	a.Modules = append(a.Modules[:j], a.Modules[j+1:]...)
	for idx := i; idx < len(a.Modules); idx++ {
		m := a.Modules[idx]
		m.ID = idx
		for _, op := range m.Ops {
			a.ModuleOf[op] = idx
		}
	}
	return nil
}

// MergeRegs folds register j into register i; ids are recompacted.
func (a *Allocation) MergeRegs(i, j int) error {
	if i == j {
		return fmt.Errorf("alloc: cannot merge register %d with itself", i)
	}
	if i > j {
		i, j = j, i
	}
	ri, rj := a.Regs[i], a.Regs[j]
	ri.Vals = append(ri.Vals, rj.Vals...)
	slices.Sort(ri.Vals)
	a.Regs = append(a.Regs[:j], a.Regs[j+1:]...)
	for idx := i; idx < len(a.Regs); idx++ {
		r := a.Regs[idx]
		r.ID = idx
		for _, v := range r.Vals {
			a.RegOf[v] = idx
		}
	}
	return nil
}

// Verify checks internal consistency and that the allocation is legal for
// the given schedule: class compatibility inside modules, one operation
// per module per step, and disjoint lifetimes inside registers.
func (a *Allocation) Verify(g *dfg.Graph, s sched.Schedule, class sched.ClassFunc, life Life) error {
	if class == nil {
		class = sched.ExactClass
	}
	// owner[st] is the first operation of the module being checked that
	// occupies step st; ownerMod[st] is that module's index plus one.
	maxStep := 0
	for _, st := range s.Step {
		maxStep = max(maxStep, st)
	}
	owner := make([]dfg.NodeID, maxStep+1)
	ownerMod := make([]int, maxStep+1)
	for idx, m := range a.Modules {
		if m.ID != idx {
			return fmt.Errorf("alloc: module %d has stale id %d", idx, m.ID)
		}
		for _, op := range m.Ops {
			if a.ModuleOf[op] != idx {
				return fmt.Errorf("alloc: ModuleOf[%v] inconsistent with module %d", op, idx)
			}
			if c := class(g.Node(op).Kind); c != m.Class {
				return fmt.Errorf("alloc: op %s (class %s) in module %d of class %s", g.Node(op).Name, c, idx, m.Class)
			}
			st := s.Step[op]
			if st < 0 {
				return fmt.Errorf("alloc: op %s at invalid step %d", g.Node(op).Name, st)
			}
			if ownerMod[st] == idx+1 {
				return fmt.Errorf("alloc: ops %s and %s share module %d at step %d",
					g.Node(op).Name, g.Node(owner[st]).Name, idx, st)
			}
			owner[st], ownerMod[st] = op, idx+1
		}
	}
	for idx, r := range a.Regs {
		if r.ID != idx {
			return fmt.Errorf("alloc: register %d has stale id %d", idx, r.ID)
		}
		for _, v := range r.Vals {
			if a.RegOf[v] != idx {
				return fmt.Errorf("alloc: RegOf[%v] inconsistent with register %d", v, idx)
			}
		}
	}
	return VerifyDisjoint(g, life, a.RegOf)
}

// String renders the allocation in the style of the paper's tables:
// module groups as "(op): N1, N2" lines and register groups as
// "R: a, b, c" lines.
func (a *Allocation) String(g *dfg.Graph) string {
	var b strings.Builder
	for _, m := range a.Modules {
		names := make([]string, len(m.Ops))
		for i, op := range m.Ops {
			names[i] = g.Node(op).Name
		}
		fmt.Fprintf(&b, "(%s): %s\n", m.Class, strings.Join(names, ", "))
	}
	for _, r := range a.Regs {
		names := make([]string, len(r.Vals))
		for i, v := range r.Vals {
			names[i] = g.Value(v).Name
		}
		fmt.Fprintf(&b, "R: %s\n", strings.Join(names, ", "))
	}
	return b.String()
}

// NumModules returns the number of functional modules.
func (a *Allocation) NumModules() int { return len(a.Modules) }

// NumRegs returns the number of registers.
func (a *Allocation) NumRegs() int { return len(a.Regs) }
