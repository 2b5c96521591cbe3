package testability

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/alloc"
	"repro/internal/dfg"
	"repro/internal/etpn"
	"repro/internal/sched"
)

// refNodeCtrlIn is the map-based nodeCtrlIn that the per-port arrays
// replaced, verbatim apart from its name, as the reference
// TestNodeCtrlInMatchesReference compares against.
func (m *Metrics) refNodeCtrlIn(d *etpn.Design, nd *etpn.Node) (float64, float64, bool) {
	if nd.Kind == etpn.KindRegister && m.scan[nd.ID] {
		return 0, 0, false // anchored by the scan chain
	}
	switch nd.Kind {
	case etpn.KindInPort, etpn.KindConst:
		return 0, 0, false // fixed sources
	case etpn.KindRegister, etpn.KindOutPort:
		bestC, bestS := 0.0, math.Inf(1)
		found := false
		for _, a := range d.ArcsInto(nd.ID) {
			cc, sc := m.CC[a.From], m.SC[a.From]
			if cc == 0 {
				continue
			}
			// Loading a register crosses one clock boundary.
			if nd.Kind == etpn.KindRegister {
				cc *= regFactor
				sc++
			}
			if !found || better(cc, sc, bestC, bestS, 0) {
				bestC, bestS, found = cc, sc, true
			}
		}
		return bestC, bestS, found
	case etpn.KindModule:
		// Every operand port must be controllable; a port fed by several
		// sources uses its best source. If any port has no controllable
		// source yet, the module is not yet controllable (computing a
		// partial product would break the monotonicity of the fixpoint).
		ports := map[int][2]float64{}
		allPorts := map[int]bool{}
		for _, a := range d.ArcsInto(nd.ID) {
			allPorts[a.ToPort] = true
			cc, sc := m.CC[a.From], m.SC[a.From]
			if cc == 0 {
				continue
			}
			cur, ok := ports[a.ToPort]
			if !ok || better(cc, sc, cur[0], cur[1], 0) {
				ports[a.ToPort] = [2]float64{cc, sc}
			}
		}
		if len(ports) == 0 || len(ports) != len(allPorts) {
			return 0, 0, false
		}
		f := factorsOf(nd.Class)
		cc := f.ctf
		sc := 0.0
		// Multiply ports in sorted order: float multiplication is not
		// associative under rounding, so ranging over the map directly
		// would let Go's randomized map order perturb cc in its last ulp
		// and make the fixpoint (and everything ranked by it) vary from
		// run to run.
		ids := make([]int, 0, len(ports))
		for id := range ports {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			p := ports[id]
			cc *= p[0]
			if p[1] > sc {
				sc = p[1]
			}
		}
		return cc, sc, true
	}
	return 0, 0, false
}

// TestNodeCtrlInMatchesReference compares nodeCtrlIn with the map-based
// reference on every node of the left-edge and one-to-one designs of
// every named benchmark at 4 and 8 bits: at the analysed fixpoint, and on
// seeded random (CC, SC) vectors where a third of the nodes are not yet
// controllable, so ports fed only by uncontrollable sources occur. The
// results must be bit-identical.
func TestNodeCtrlInMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	var ports []portBest
	modules, refused := 0, 0
	for _, name := range dfg.BenchmarkNames() {
		for _, w := range []int{4, 8} {
			g, err := dfg.ByName(name, w)
			if err != nil {
				t.Fatal(err)
			}
			s, err := sched.NewProblem(g).ASAP()
			if err != nil {
				t.Fatal(err)
			}
			life := alloc.Lifetimes(g, s)
			regOf, n := alloc.RegisterLeftEdge(g, life)
			for _, a := range []*alloc.Allocation{alloc.Default(g, sched.ExactClass, life), alloc.BindModules(g, s, sched.ExactClass, regOf, n)} {
				d, err := etpn.Build(g, s, a, life, "")
				if err != nil {
					t.Fatal(err)
				}
				m := Analyze(d, nil)
				for trial := 0; trial <= 20; trial++ {
					if trial > 0 {
						for i := range m.CC {
							m.CC[i], m.SC[i] = 0, math.Inf(1)
							if rng.Intn(3) > 0 {
								m.CC[i], m.SC[i] = rng.Float64(), float64(rng.Intn(5))
							}
						}
					}
					for _, nd := range d.Nodes {
						cc, sc, ok := m.nodeCtrlIn(d, nd, &ports)
						rc, rs, rok := m.refNodeCtrlIn(d, nd)
						if math.Float64bits(cc) != math.Float64bits(rc) || math.Float64bits(sc) != math.Float64bits(rs) || ok != rok {
							t.Fatalf("%s-%d trial %d node %s: (%v, %v, %v), reference (%v, %v, %v)", name, w, trial, nd.Name, cc, sc, ok, rc, rs, rok)
						}
						if nd.Kind == etpn.KindModule {
							modules++
							if !ok {
								refused++
							}
						}
					}
				}
			}
		}
	}
	if refused == 0 || refused == modules {
		t.Fatalf("%d of %d module evaluations refused: both outcomes must occur", refused, modules)
	}
}
