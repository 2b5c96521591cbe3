// Package petri implements the timed Petri net with restricted transition
// firing rules that forms the control part of the ETPN design representation
// (Peng & Kuchcinski [14]). Places model control steps: a token must reside
// in a place for the place's duration (in control steps) before it can
// enable its output transitions. Transitions may be guarded by condition
// signals produced by the data path.
//
// The package provides construction, validation, timed execution, a
// reachability tree, and the critical-path extraction used by the synthesis
// algorithm's ΔE estimate (paper §4.2).
package petri

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/exec"
)

// PlaceID identifies a place.
type PlaceID int

// TransID identifies a transition.
type TransID int

// NoPlace is the sentinel place id.
const NoPlace PlaceID = -1

// Place is a control place. Duration is the number of control steps a token
// must reside in the place before its output transitions become enabled;
// ordinary control steps have duration 1, dummy places inserted by
// rescheduling also take one step, and zero-duration places act as purely
// structural forks/joins.
type Place struct {
	ID       PlaceID
	Name     string
	Duration int
	Initial  bool // marked in the initial marking
	Final    bool // part of the final marking
}

// Transition moves tokens from its input places to its output places. A
// non-empty Guard names a data-path condition signal; the transition is
// enabled only when the signal has the value GuardVal.
type Transition struct {
	ID       TransID
	Name     string
	In       []PlaceID
	Out      []PlaceID
	Guard    string
	GuardVal bool
}

// Net is a timed Petri net.
type Net struct {
	Name        string
	places      []*Place
	transitions []*Transition
}

// NewNet returns an empty net.
func NewNet(name string) *Net { return &Net{Name: name} }

// AddPlace appends a place and returns its id.
func (n *Net) AddPlace(name string, duration int) PlaceID {
	id := PlaceID(len(n.places))
	if name == "" {
		name = fmt.Sprintf("s%d", id)
	}
	n.places = append(n.places, &Place{ID: id, Name: name, Duration: duration})
	return id
}

// AddTransition appends an unguarded transition and returns its id.
func (n *Net) AddTransition(name string, in, out []PlaceID) TransID {
	return n.AddGuarded(name, in, out, "", false)
}

// AddGuarded appends a transition guarded by signal == val.
func (n *Net) AddGuarded(name string, in, out []PlaceID, signal string, val bool) TransID {
	id := TransID(len(n.transitions))
	if name == "" {
		name = fmt.Sprintf("t%d", id)
	}
	n.transitions = append(n.transitions, &Transition{
		ID: id, Name: name,
		In:    append([]PlaceID(nil), in...),
		Out:   append([]PlaceID(nil), out...),
		Guard: signal, GuardVal: val,
	})
	return id
}

// MarkInitial includes p in the initial marking.
func (n *Net) MarkInitial(p PlaceID) { n.places[p].Initial = true }

// MarkFinal includes p in the final marking.
func (n *Net) MarkFinal(p PlaceID) { n.places[p].Final = true }

// Place returns the place with the given id.
func (n *Net) Place(id PlaceID) *Place { return n.places[id] }

// Transition returns the transition with the given id.
func (n *Net) Transition(id TransID) *Transition { return n.transitions[id] }

// Places returns the places in id order (backing store; do not mutate).
func (n *Net) Places() []*Place { return n.places }

// Validate checks structural sanity: every transition has at least one input
// and one output, all referenced places exist, durations are non-negative,
// there is an initial and a final marking, and any two transitions sharing
// an input place are distinguished by complementary guards on the same
// signal (the restricted firing rule keeps the net conflict-free).
func (n *Net) Validate() error {
	hasInit, hasFinal := false, false
	for _, p := range n.places {
		if p.Duration < 0 {
			return fmt.Errorf("petri: place %s has negative duration", p.Name)
		}
		hasInit = hasInit || p.Initial
		hasFinal = hasFinal || p.Final
	}
	if !hasInit {
		return fmt.Errorf("petri: net %s has no initial marking", n.Name)
	}
	if !hasFinal {
		return fmt.Errorf("petri: net %s has no final marking", n.Name)
	}
	byInput := map[PlaceID][]*Transition{}
	for _, t := range n.transitions {
		if len(t.In) == 0 || len(t.Out) == 0 {
			return fmt.Errorf("petri: transition %s must have inputs and outputs", t.Name)
		}
		for _, p := range append(append([]PlaceID(nil), t.In...), t.Out...) {
			if p < 0 || int(p) >= len(n.places) {
				return fmt.Errorf("petri: transition %s references unknown place %d", t.Name, p)
			}
		}
		for _, p := range t.In {
			byInput[p] = append(byInput[p], t)
		}
	}
	for p, ts := range byInput {
		if len(ts) == 1 {
			continue
		}
		for i := 0; i < len(ts); i++ {
			for j := i + 1; j < len(ts); j++ {
				a, b := ts[i], ts[j]
				conflictFree := a.Guard != "" && a.Guard == b.Guard && a.GuardVal != b.GuardVal
				if !conflictFree {
					return fmt.Errorf("petri: transitions %s and %s conflict on place %s without complementary guards",
						a.Name, b.Name, n.places[p].Name)
				}
			}
		}
	}
	return nil
}

// Marking is a safe (1-bounded) marking: the set of marked places with the
// residence age of each token.
type Marking struct {
	ages map[PlaceID]int
}

// InitialMarking returns the net's initial marking with fresh tokens.
func (n *Net) InitialMarking() Marking {
	m := Marking{ages: map[PlaceID]int{}}
	for _, p := range n.places {
		if p.Initial {
			m.ages[p.ID] = 0
		}
	}
	return m
}

// Has reports whether place p is marked.
func (m Marking) Has(p PlaceID) bool { _, ok := m.ages[p]; return ok }

// Places returns the marked places in ascending order.
func (m Marking) Places() []PlaceID {
	out := make([]PlaceID, 0, len(m.ages))
	for p := range m.ages {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Key returns a canonical string for the set of marked places (ages
// excluded), used for loop detection in the reachability tree.
func (m Marking) Key() string {
	ps := m.Places()
	var b strings.Builder
	for _, p := range ps {
		fmt.Fprintf(&b, "%d,", p)
	}
	return b.String()
}

func (m Marking) clone() Marking {
	c := Marking{ages: make(map[PlaceID]int, len(m.ages))}
	for p, a := range m.ages {
		c.ages[p] = a
	}
	return c
}

// IsFinal reports whether every final place of the net is marked.
func (n *Net) IsFinal(m Marking) bool {
	any := false
	for _, p := range n.places {
		if p.Final {
			any = true
			if !m.Has(p.ID) {
				return false
			}
		}
	}
	return any
}

// residenceComplete reports whether every token in m has resided for at
// least its place's duration.
func (n *Net) residenceComplete(m Marking) bool {
	for p, age := range m.ages {
		if age < n.places[p].Duration {
			return false
		}
	}
	return true
}

// enabled reports whether t is enabled in m given guard values: every input
// place is marked, every token has resided at least its place's duration,
// and the guard (if any) matches.
func (n *Net) enabled(t *Transition, m Marking, guards map[string]bool) bool {
	for _, p := range t.In {
		age, ok := m.ages[p]
		if !ok || age < n.places[p].Duration {
			return false
		}
	}
	if t.Guard != "" {
		v, ok := guards[t.Guard]
		if !ok || v != t.GuardVal {
			return false
		}
	}
	return true
}

// fire returns the marking after firing t in m. Newly produced tokens have
// age zero. fire panics if t is not structurally enabled.
func (n *Net) fire(t *Transition, m Marking) Marking {
	c := m.clone()
	for _, p := range t.In {
		if _, ok := c.ages[p]; !ok {
			panic(fmt.Sprintf("petri: firing %s without token in %s", t.Name, n.places[p].Name))
		}
		delete(c.ages, p)
	}
	for _, p := range t.Out {
		c.ages[p] = 0
	}
	return c
}

// tick advances every token's age by one control step.
func (m Marking) tick() Marking {
	c := m.clone()
	for p := range c.ages {
		c.ages[p]++
	}
	return c
}

// GuardOracle supplies condition-signal values during execution. The
// occurrence argument counts, per signal, how many times the signal has
// been consulted (so a loop guard can be told to exit after k iterations).
type GuardOracle func(signal string, occurrence int) bool

// Exec runs the net to its final marking under maximal-step semantics: at
// each clock tick, all enabled transitions fire simultaneously (the
// restricted firing rule guarantees conflict-freedom). It returns the total
// number of control steps. maxSteps bounds execution to guard against
// livelock; an error is returned if the final marking is not reached.
//
// Exec is a public library boundary: an internal panic (e.g. fire on a
// structurally disabled transition, which indicates a malformed net) is
// recovered and returned as an *exec.ExecError rather than unwinding into
// the caller.
func (n *Net) Exec(oracle GuardOracle, maxSteps int) (int, error) {
	return exec.Guard1("petri.exec", -1, func() (int, error) { return n.run(oracle, maxSteps) })
}

func (n *Net) run(oracle GuardOracle, maxSteps int) (int, error) {
	if oracle == nil {
		oracle = func(string, int) bool { return false }
	}
	occ := map[string]int{}
	m := n.InitialMarking()
	guards := map[string]bool{}
	resolve := func(t *Transition) {
		if t.Guard == "" {
			return
		}
		if _, done := guards[t.Guard]; !done {
			guards[t.Guard] = oracle(t.Guard, occ[t.Guard])
			occ[t.Guard]++
		}
	}
	for step := 0; step <= maxSteps; step++ {
		// Step boundary: fire every enabled transition, cascading through
		// zero-duration places. Guard signals are consulted once per
		// boundary and hold their value across the cascade.
		guards = map[string]bool{}
		for round := 0; ; round++ {
			if round > 4*len(n.transitions)+4 {
				return 0, fmt.Errorf("petri: net %s has a zero-delay cycle", n.Name)
			}
			var ready []*Transition
			for _, t := range n.transitions {
				structOK := true
				for _, p := range t.In {
					age, ok := m.ages[p]
					if !ok || age < n.places[p].Duration {
						structOK = false
						break
					}
				}
				if structOK {
					resolve(t)
					if n.enabled(t, m, guards) {
						ready = append(ready, t)
					}
				}
			}
			if len(ready) == 0 {
				break
			}
			for _, t := range ready {
				m = n.fire(t, m)
			}
		}
		if n.IsFinal(m) && n.residenceComplete(m) {
			return step, nil
		}
		m = m.tick()
	}
	return 0, fmt.Errorf("petri: net %s did not reach its final marking within %d steps", n.Name, maxSteps)
}
