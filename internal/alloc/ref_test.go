package alloc

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dfg"
	"repro/internal/sched"
)

// refVerifyDisjoint is the map-based VerifyDisjoint that the id-ordered
// walk replaced, verbatim apart from reading the dense lifetimes and
// binding: it groups values by register in map order and reports whichever
// overlap that order reaches first.
func refVerifyDisjoint(g *dfg.Graph, life Life, regOf []int) error {
	regOfMap := map[dfg.ValueID]int{}
	for v, r := range regOf {
		if r >= 0 {
			regOfMap[dfg.ValueID(v)] = r
		}
	}
	byReg := map[int][]dfg.ValueID{}
	for v, r := range regOfMap {
		byReg[r] = append(byReg[r], v)
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

// TestVerifyDisjointMatchesReference merges random register pairs of the
// default allocation of every named benchmark, legal or not, and checks
// that VerifyDisjoint flags exactly the allocations the reference flags.
// The reference names whichever overlap its map order reaches first, so
// the message is checked against every overlap it could name.
func TestVerifyDisjointMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1998))
	for _, name := range dfg.BenchmarkNames() {
		for _, w := range []int{4, 8} {
			g, err := dfg.ByName(name, w)
			if err != nil {
				t.Fatal(err)
			}
			s := asap(t, g)
			life := Lifetimes(g, s)
			for trial := 0; trial < 20; trial++ {
				a := Default(g, sched.ExactClass, life)
				for m := rng.Intn(6); m > 0 && a.NumRegs() > 1; m-- {
					i, j := rng.Intn(a.NumRegs()), rng.Intn(a.NumRegs())
					if i != j {
						if err := a.MergeRegs(i, j); err != nil {
							t.Fatal(err)
						}
					}
				}
				got, ref := VerifyDisjoint(g, life, a.RegOf), refVerifyDisjoint(g, life, a.RegOf)
				if (got == nil) != (ref == nil) {
					t.Fatalf("%s-%d trial %d: got %v, reference %v", name, w, trial, got, ref)
				}
				if got == nil {
					continue
				}
				possible := map[string]bool{}
				for r, reg := range a.Regs {
					for _, x := range reg.Vals {
						for _, y := range reg.Vals {
							lx, _ := life.Of(x)
							ly, _ := life.Of(y)
							if x != y && Overlaps(lx, ly) {
								possible[fmt.Sprintf("alloc: values %s %v and %s %v overlap in register %d",
									g.Value(x).Name, lx, g.Value(y).Name, ly, r)] = true
							}
						}
					}
				}
				if !possible[got.Error()] || !possible[ref.Error()] {
					t.Fatalf("%s-%d trial %d: %v / reference %v not among the overlaps %v", name, w, trial, got, ref, possible)
				}
			}
		}
	}
}
