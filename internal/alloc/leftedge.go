package alloc

import (
	"sort"

	"repro/internal/dfg"
	"repro/internal/sched"
)

// RegisterLeftEdge performs classic left-edge register allocation: values
// sorted by birth time are packed greedily into the first register whose
// current contents have all died. It minimizes register count for the
// given schedule.
func RegisterLeftEdge(g *dfg.Graph, life Life) ([]int, int) {
	return registerLeftEdge(g, life, false)
}

// RegisterLeftEdgeTestable is the modified left-edge allocation used by
// Lee et al. [6,7] (the paper's Approaches 1 and 2): like the classic
// algorithm, but when several registers can accept a value it prefers one
// already holding a primary-input or primary-output variable, so that as
// many registers as possible contain an easily controlled or observed
// variable (Lee's first heuristic rule).
func RegisterLeftEdgeTestable(g *dfg.Graph, life Life) ([]int, int) {
	return registerLeftEdge(g, life, true)
}

// registerLeftEdge returns the register of every value, indexed by
// dfg.ValueID (-1 for unstored values), and the register count.
func registerLeftEdge(g *dfg.Graph, life Life, preferPIPO bool) ([]int, int) {
	type ent struct {
		v  dfg.ValueID
		iv Interval
	}
	var vals []ent
	for v, l := range life {
		if l.Stored {
			vals = append(vals, ent{dfg.ValueID(v), l.Interval})
		}
	}
	sort.Slice(vals, func(i, j int) bool {
		if vals[i].iv.Birth != vals[j].iv.Birth {
			return vals[i].iv.Birth < vals[j].iv.Birth
		}
		if vals[i].iv.Death != vals[j].iv.Death {
			return vals[i].iv.Death < vals[j].iv.Death
		}
		return vals[i].v < vals[j].v
	})
	isPIPO := func(v dfg.ValueID) bool {
		val := g.Value(v)
		return val.Kind == dfg.ValInput || val.IsOutput
	}
	regOf := make([]int, len(life))
	for v := range regOf {
		regOf[v] = -1
	}
	var lastDeath []int
	var holdsPIPO []bool
	for _, e := range vals {
		chosen := -1
		for r := 0; r < len(lastDeath); r++ {
			if lastDeath[r] > e.iv.Birth {
				continue // still occupied
			}
			if chosen == -1 {
				chosen = r
				if !preferPIPO {
					break
				}
				continue
			}
			if preferPIPO && !holdsPIPO[chosen] && holdsPIPO[r] {
				chosen = r
			}
		}
		if chosen == -1 {
			chosen = len(lastDeath)
			lastDeath = append(lastDeath, 0)
			holdsPIPO = append(holdsPIPO, false)
		}
		regOf[e.v] = chosen
		lastDeath[chosen] = e.iv.Death
		holdsPIPO[chosen] = holdsPIPO[chosen] || isPIPO(e.v)
	}
	return regOf, len(lastDeath)
}

// BindModules binds scheduled operations to the minimum number of modules
// per class by left-edge packing over control steps: within each class,
// operations sorted by step go to the first module of that class free at
// that step. It returns a complete Allocation when combined with the
// given register assignment (indexed by dfg.ValueID, -1 for no register).
func BindModules(g *dfg.Graph, s sched.Schedule, class sched.ClassFunc, regOf []int, numRegs int) *Allocation {
	if class == nil {
		class = sched.ExactClass
	}
	a := newAllocation(g)
	byClass := map[string][]dfg.NodeID{}
	var classes []string
	for _, n := range g.Nodes() {
		c := class(n.Kind)
		if _, ok := byClass[c]; !ok {
			classes = append(classes, c)
		}
		byClass[c] = append(byClass[c], n.ID)
	}
	sort.Strings(classes)
	for _, c := range classes {
		ops := byClass[c]
		sort.Slice(ops, func(i, j int) bool {
			si, sj := s.Step[ops[i]], s.Step[ops[j]]
			if si != sj {
				return si < sj
			}
			return ops[i] < ops[j]
		})
		var mods []*ModuleGroup
		busy := map[int]map[int]bool{} // local module idx -> steps used
		for _, op := range ops {
			st := s.Step[op]
			placed := false
			for i, m := range mods {
				if !busy[i][st] {
					m.Ops = append(m.Ops, op)
					busy[i][st] = true
					placed = true
					break
				}
			}
			if !placed {
				mods = append(mods, &ModuleGroup{Class: c, Ops: []dfg.NodeID{op}})
				busy[len(mods)-1] = map[int]bool{st: true}
			}
		}
		for _, m := range mods {
			m.ID = len(a.Modules)
			a.Modules = append(a.Modules, m)
			for _, op := range m.Ops {
				a.ModuleOf[op] = m.ID
			}
		}
	}
	a.Regs = make([]*RegGroup, numRegs)
	for i := range a.Regs {
		a.Regs[i] = &RegGroup{ID: i}
	}
	for v, r := range regOf {
		if r < 0 {
			continue
		}
		a.RegOf[v] = r
		a.Regs[r].Vals = append(a.Regs[r].Vals, dfg.ValueID(v))
	}
	return a
}

// Connectivity scores how many data-path connections two modules share:
// common source registers and common destination registers of their
// operations. Conventional allocation (the CAMAD baseline, paper §3)
// merges the highest-connectivity pairs to minimize interconnect and
// multiplexers.
func Connectivity(g *dfg.Graph, a *Allocation, i, j int) int {
	srcs := func(m *ModuleGroup) map[int]bool {
		set := map[int]bool{}
		for _, op := range m.Ops {
			for _, v := range g.Node(op).In {
				if r := a.RegOf[v]; r >= 0 {
					set[r] = true
				}
			}
		}
		return set
	}
	dsts := func(m *ModuleGroup) map[int]bool {
		set := map[int]bool{}
		for _, op := range m.Ops {
			if r := a.RegOf[g.Node(op).Out]; r >= 0 {
				set[r] = true
			}
		}
		return set
	}
	score := 0
	si, sj := srcs(a.Modules[i]), srcs(a.Modules[j])
	for r := range si {
		if sj[r] {
			score++
		}
	}
	di, dj := dsts(a.Modules[i]), dsts(a.Modules[j])
	for r := range di {
		if dj[r] {
			score++
		}
	}
	return score
}

// RegConnectivity scores how many producers/consumers two registers
// share: merging high-connectivity registers minimizes mux inputs.
func RegConnectivity(g *dfg.Graph, a *Allocation, i, j int) int {
	writers := func(r *RegGroup) map[int]bool {
		set := map[int]bool{}
		for _, v := range r.Vals {
			if d := g.Value(v).Def; d != dfg.NoNode {
				set[a.ModuleOf[d]] = true
			}
		}
		return set
	}
	readers := func(r *RegGroup) map[int]bool {
		set := map[int]bool{}
		for _, v := range r.Vals {
			for _, u := range g.Value(v).Uses {
				set[a.ModuleOf[u]] = true
			}
		}
		return set
	}
	score := 0
	wi, wj := writers(a.Regs[i]), writers(a.Regs[j])
	for m := range wi {
		if wj[m] {
			score++
		}
	}
	ri, rj := readers(a.Regs[i]), readers(a.Regs[j])
	for m := range ri {
		if rj[m] {
			score++
		}
	}
	return score
}
