// Package alloc implements data-path allocation for high-level synthesis:
// variable lifetime analysis, classic and testability-modified left-edge
// register allocation, module binding, and the allocation state mutated by
// the paper's merger transformation.
package alloc

import (
	"fmt"

	"repro/internal/dfg"
	"repro/internal/sched"
)

// Interval is the storage lifetime of a value: it is written to its
// register at the end of control step Birth and must be held through step
// Death (its last read, or one step of residence for primary outputs).
// Storage is occupied during the half-open step range (Birth, Death].
type Interval struct {
	Birth int
	Death int
}

// Overlaps reports whether two storage intervals require simultaneous
// storage. A value dying in step s and a value born at the end of step s
// may share a register: the register loads the new value as the old one is
// read for the last time.
func Overlaps(a, b Interval) bool {
	return a.Birth < b.Death && b.Birth < a.Death
}

// Lifetime is one value's entry in a Life: its storage interval, valid
// only when Stored is set.
type Lifetime struct {
	Interval
	// Stored is false for values that never occupy a register: constants
	// and dead inputs. Their Interval is zero.
	Stored bool
}

// Life holds the lifetime of every value of a graph, indexed by
// dfg.ValueID.
type Life []Lifetime

// Of returns the storage interval of v and whether v is stored at all.
func (l Life) Of(v dfg.ValueID) (Interval, bool) {
	e := l[v]
	return e.Interval, e.Stored
}

// Lifetimes computes the storage interval of every register-allocated
// value under schedule s. Constants are excluded (they are wired into the
// data path, not stored). Primary inputs are loaded from their port at the
// end of the step before their first use. Primary outputs are held for at
// least one step after production so they can be observed.
func Lifetimes(g *dfg.Graph, s sched.Schedule) Life {
	out := make(Life, g.NumValues())
	for _, v := range g.Values() {
		if v.Kind == dfg.ValConst {
			continue
		}
		var birth int
		switch v.Kind {
		case dfg.ValInput:
			first := s.Len + 1
			for _, u := range v.Uses {
				if st := s.Step[u]; st < first {
					first = st
				}
			}
			if len(v.Uses) == 0 {
				continue // dead input: never stored
			}
			birth = first - 1
		case dfg.ValTemp:
			birth = s.Step[v.Def]
		}
		death := birth
		for _, u := range v.Uses {
			if st := s.Step[u]; st > death {
				death = st
			}
		}
		if v.IsOutput && death < birth+1 {
			death = birth + 1
		}
		if death == birth {
			// Value read only in the step right after production never
			// rests in storage across a boundary... it still needs a
			// register for one step to cross the clock edge.
			death = birth + 1
		}
		out[v.ID] = Lifetime{Interval: Interval{Birth: birth, Death: death}, Stored: true}
	}
	return out
}

// VerifyDisjoint checks that every pair of values sharing a register has
// disjoint lifetimes. regOf is indexed by dfg.ValueID, -1 for a value in
// no register. Registers are checked in id order and the values of each in
// id order, so the same allocation always names the same violation.
func VerifyDisjoint(g *dfg.Graph, life Life, regOf []int) error {
	var byReg [][]dfg.ValueID
	for v, r := range regOf {
		if r < 0 {
			continue
		}
		for len(byReg) <= r {
			byReg = append(byReg, nil)
		}
		byReg[r] = append(byReg[r], dfg.ValueID(v))
	}
	for r, vs := range byReg {
		for i := 0; i < len(vs); i++ {
			for j := i + 1; j < len(vs); j++ {
				a, aok := life.Of(vs[i])
				b, bok := life.Of(vs[j])
				if !aok || !bok {
					continue
				}
				if Overlaps(a, b) {
					return fmt.Errorf("alloc: values %s %v and %s %v overlap in register %d",
						g.Value(vs[i]).Name, a, g.Value(vs[j]).Name, b, r)
				}
			}
		}
	}
	return nil
}
