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

// This file keeps the design-based analysis that AnalyzeWiring replaced,
// verbatim apart from names and the scan set it kept on its metrics, as
// the reference the differential tests compare against, and the
// map-based nodeCtrlIn before that.

// RefAnalyze exports the reference to the external differential tests,
// which need the synthesis core and scan selection to reach their
// designs.
var RefAnalyze = refAnalyze

// refMetrics is Metrics with the scan set the design-based analysis kept
// on it.
type refMetrics struct {
	*Metrics
	scan map[int]bool
}

// refAnalyze computes the testability metrics of every node of d's data path.
// scan marks data-path register nodes implemented as scan registers (nil
// for none): they are directly controllable and observable through the
// scan chain, so the analysis anchors them like primary ports.
func refAnalyze(d *etpn.Design, scan map[int]bool) *Metrics {
	n := len(d.Nodes)
	m := &refMetrics{Metrics: &Metrics{
		CC: make([]float64, n), SC: make([]float64, n),
		CO: make([]float64, n), SO: make([]float64, n),
	},
		scan: scan,
	}
	for i := range m.SC {
		m.SC[i] = math.Inf(1)
		m.SO[i] = math.Inf(1)
	}
	// Sources.
	for _, nd := range d.Nodes {
		switch nd.Kind {
		case etpn.KindInPort:
			m.CC[nd.ID], m.SC[nd.ID] = 1, 0
		case etpn.KindConst:
			m.CC[nd.ID], m.SC[nd.ID] = constCC, 0
		case etpn.KindOutPort:
			m.CO[nd.ID], m.SO[nd.ID] = 1, 0
		case etpn.KindRegister:
			if scan[nd.ID] {
				// Scan registers load through the chain (one scan cycle)
				// and are observed through it directly.
				m.CC[nd.ID], m.SC[nd.ID] = 1, 1
				m.CO[nd.ID], m.SO[nd.ID] = 1, 0
			}
		}
	}

	// Forward controllability fixpoint; ports is nodeCtrlIn's scratch.
	var ports []portBest
	for iter := 0; iter < maxIter; iter++ {
		changed := false
		for _, nd := range d.Nodes {
			cc, sc, ok := m.refCtrlIn(d, nd, &ports)
			if !ok {
				continue
			}
			if better(cc, sc, m.CC[nd.ID], m.SC[nd.ID], eps) {
				m.CC[nd.ID], m.SC[nd.ID] = cc, sc
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	// Backward observability fixpoint.
	for iter := 0; iter < maxIter; iter++ {
		changed := false
		for _, nd := range d.Nodes {
			co, so, ok := m.refObsOut(d, nd)
			if !ok {
				continue
			}
			if better(co, so, m.CO[nd.ID], m.SO[nd.ID], eps) {
				m.CO[nd.ID], m.SO[nd.ID] = co, so
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	// Unreachable nodes: clamp infinities to a large finite depth so
	// downstream arithmetic stays sane.
	for i := range m.SC {
		if math.IsInf(m.SC[i], 1) {
			m.SC[i] = float64(n)
		}
		if math.IsInf(m.SO[i], 1) {
			m.SO[i] = float64(n)
		}
	}
	return m.Metrics
}

// refCtrlIn computes the controllability a node derives from its input
// lines: the best input line for registers (the node inherits the best
// controllability of any input line, paper §3), and the transfer through
// the module for module nodes (all operand ports must be controlled).
// ports is scratch indexed by operand port, grown as needed.
func (m *refMetrics) refCtrlIn(d *etpn.Design, nd *etpn.Node, ports *[]portBest) (float64, float64, bool) {
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
		arcs := d.ArcsInto(nd.ID)
		n := 0
		for _, a := range arcs {
			n = max(n, a.ToPort+1)
		}
		if cap(*ports) < n {
			*ports = make([]portBest, n)
		}
		ps := (*ports)[:n]
		clear(ps)
		for _, a := range arcs {
			p := &ps[a.ToPort]
			p.fed = true
			cc, sc := m.CC[a.From], m.SC[a.From]
			if cc == 0 {
				continue
			}
			if !p.ok || better(cc, sc, p.cc, p.sc, 0) {
				p.cc, p.sc, p.ok = cc, sc, true
			}
		}
		f := factorsOf(nd.Class)
		cc, sc, fed := f.ctf, 0.0, false
		// Multiply the ports in ascending order: float multiplication is
		// not associative under rounding, so another order could perturb
		// cc in its last ulp and move the fixpoint (and everything ranked
		// by it).
		for _, p := range ps {
			if !p.fed {
				continue
			}
			if !p.ok {
				return 0, 0, false
			}
			fed = true
			cc *= p.cc
			if p.sc > sc {
				sc = p.sc
			}
		}
		if !fed {
			return 0, 0, false
		}
		return cc, sc, true
	}
	return 0, 0, false
}

// refObsOut computes the observability a node derives from its output
// lines: the best output line (paper §3). Observing a value through a
// module requires controlling the module's other operand ports, which
// scales the line observability by their controllability.
func (m *refMetrics) refObsOut(d *etpn.Design, nd *etpn.Node) (float64, float64, bool) {
	if nd.Kind == etpn.KindOutPort {
		return 0, 0, false // fixed sink
	}
	if nd.Kind == etpn.KindRegister && m.scan[nd.ID] {
		return 0, 0, false // anchored by the scan chain
	}
	bestC, bestS := 0.0, math.Inf(1)
	found := false
	for _, a := range d.ArcsFrom(nd.ID) {
		to := d.Nodes[a.To]
		var co, so float64
		switch to.Kind {
		case etpn.KindOutPort:
			co, so = 1, 0
		case etpn.KindRegister:
			co, so = m.CO[a.To]*regFactor, m.SO[a.To]+1
		case etpn.KindModule:
			co, so = m.CO[a.To], m.SO[a.To]
			f := factorsOf(to.Class)
			co *= f.otf
			// Control of the sibling operand ports gates propagation.
			for _, sib := range d.ArcsInto(a.To) {
				if sib.ToPort == a.ToPort {
					continue
				}
				// Best source controllability on the sibling port.
				best := 0.0
				for _, s2 := range d.ArcsInto(a.To) {
					if s2.ToPort == sib.ToPort && m.CC[s2.From] > best {
						best = m.CC[s2.From]
					}
				}
				co *= best
				break // one multiplier per distinct sibling port set
			}
		default:
			continue
		}
		if co == 0 || math.IsInf(so, 1) {
			continue
		}
		if !found || better(co, so, bestC, bestS, 0) {
			bestC, bestS, found = co, so, true
		}
	}
	return bestC, bestS, found
}

// refNodeCtrlIn is the map-based nodeCtrlIn that the per-port arrays
// replaced, verbatim apart from its name, as the reference
// TestNodeCtrlInMatchesReference compares against.
func (m *refMetrics) refNodeCtrlIn(d *etpn.Design, nd *etpn.Node) (float64, float64, bool) {
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
// and the design-based references on every node of the left-edge and
// one-to-one designs of every named benchmark at 4 and 8 bits: at the
// analysed fixpoint, and on seeded random (CC, SC) vectors where a third
// of the nodes are not yet controllable, so ports fed only by
// uncontrollable sources occur. The results must be bit-identical.
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
				rm := &refMetrics{Metrics: m}
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
						cc, sc, ok := m.nodeCtrlIn(d.Wiring(), nil, nd.ID, &ports)
						for _, ref := range []func() (float64, float64, bool){
							func() (float64, float64, bool) { return rm.refNodeCtrlIn(d, nd) },
							func() (float64, float64, bool) { return rm.refCtrlIn(d, nd, &ports) },
						} {
							rc, rs, rok := ref()
							if math.Float64bits(cc) != math.Float64bits(rc) || math.Float64bits(sc) != math.Float64bits(rs) || ok != rok {
								t.Fatalf("%s-%d trial %d node %s: (%v, %v, %v), reference (%v, %v, %v)", name, w, trial, nd.Name, cc, sc, ok, rc, rs, rok)
							}
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
