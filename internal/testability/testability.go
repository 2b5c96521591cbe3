// Package testability implements the register-transfer-level testability
// analysis of Gu, Kuchcinski and Peng [3] on the ETPN data path. Each
// data-path node receives four measures: combinational controllability
// (CC) and observability (CO) in (0,1] reflecting test-generation cost and
// fault coverage, and sequential controllability (SC) and observability
// (SO) >= 0 counting the sequential depth (register crossings) a test must
// traverse.
//
// The analysis assigns CC=1, SC=0 to primary inputs and propagates forward
// until the primary outputs are reached; observability is propagated the
// same way in reverse from CO=1, SO=0 at the primary outputs (paper §2).
// Cyclic data paths (created by register/module sharing) are handled by a
// monotone fixpoint iteration.
package testability

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/dfg"
	"repro/internal/etpn"
)

// factors are a module class's transfer factors: ctf scales
// controllability through the module, otf scales observability.
type factors struct {
	ctf, otf float64
}

// factorsOf returns the transfer factors of a module class
// (sched.ExactClass / sched.ALUClass names); a class with no entry gets
// moderate defaults. Multipliers are markedly harder to observe through
// than to control through; comparators compress a word to one bit and are
// nearly opaque for observability.
func factorsOf(class string) factors {
	switch class {
	case "+", "-", "±":
		return factors{0.90, 0.90}
	case "*":
		return factors{0.70, 0.50}
	case "<", ">", "==":
		return factors{0.50, 0.30}
	case "&", "|", "logic":
		return factors{0.95, 0.80}
	case "^":
		return factors{0.95, 0.95}
	case "~", "mov":
		return factors{1.00, 1.00}
	}
	return factors{0.85, 0.75}
}

// The constants of the analysis, used throughout the paper reproduction.
const (
	// regFactor degrades combinational measures per register crossing.
	regFactor = 0.98
	// constCC is the controllability of a wired constant: its value is
	// known but cannot be chosen, restricting fault sensitization.
	constCC = 0.60
	// lambda weights sequential depth when collapsing (CC,SC) into a
	// single controllability score (see Ctrl/Obs).
	lambda = 0.5
	// maxIter bounds the fixpoint iteration.
	maxIter = 200
	// eps is the convergence threshold.
	eps = 1e-9
)

// Metrics holds the four testability measures per data-path node id.
type Metrics struct {
	CC, SC, CO, SO []float64
}

// Analyze computes the testability metrics of every node of d's data path.
// scan marks data-path register nodes implemented as scan registers (nil
// for none): they are directly controllable and observable through the
// scan chain, so the analysis anchors them like primary ports. It analyses
// the wiring Build laid d out from (AnalyzeWiring), so it derives nothing.
func Analyze(d *etpn.Design, scan map[int]bool) *Metrics {
	return AnalyzeWiring(d.Wiring(), scan)
}

// AnalyzeWiring computes the testability metrics of every node of the
// data path w describes, with scan as in Analyze. w must be derived and
// indexed (etpn.Wiring.Index). Every float operation runs in the order of
// the design-based analysis it replaced: nodes by id, links in link order
// (the order of Design.ArcsInto and ArcsFrom), operand ports ascending.
func AnalyzeWiring(w *etpn.Wiring, scan map[int]bool) *Metrics {
	n := w.Nodes()
	vals := make([]float64, 4*n)
	m := &Metrics{
		CC: vals[:n:n], SC: vals[n : 2*n : 2*n],
		CO: vals[2*n : 3*n : 3*n], SO: vals[3*n:],
	}
	for i := range m.SC {
		m.SC[i] = math.Inf(1)
		m.SO[i] = math.Inf(1)
	}
	// Sources.
	for id := range n {
		switch w.Kind(id) {
		case etpn.KindInPort:
			m.CC[id], m.SC[id] = 1, 0
		case etpn.KindConst:
			m.CC[id], m.SC[id] = constCC, 0
		case etpn.KindOutPort:
			m.CO[id], m.SO[id] = 1, 0
		case etpn.KindRegister:
			if scan[id] {
				// Scan registers load through the chain (one scan cycle)
				// and are observed through it directly.
				m.CC[id], m.SC[id] = 1, 1
				m.CO[id], m.SO[id] = 1, 0
			}
		}
	}

	// Forward controllability fixpoint; ports is nodeCtrlIn's scratch.
	var ports []portBest
	for iter := 0; iter < maxIter; iter++ {
		changed := false
		for id := range n {
			cc, sc, ok := m.nodeCtrlIn(w, scan, id, &ports)
			if !ok {
				continue
			}
			if better(cc, sc, m.CC[id], m.SC[id], eps) {
				m.CC[id], m.SC[id] = cc, sc
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
		for id := range n {
			co, so, ok := m.nodeObsOut(w, scan, id)
			if !ok {
				continue
			}
			if better(co, so, m.CO[id], m.SO[id], eps) {
				m.CO[id], m.SO[id] = co, so
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
	return m
}

// better reports whether the candidate (combinational, sequential) pair
// scores higher than the incumbent, by more than margin, under the
// lambda-collapsed metric.
func better(c, s, oc, os, margin float64) bool {
	return score(c, s) > score(oc, os)+margin
}

func score(c, s float64) float64 {
	if math.IsInf(s, 1) {
		return 0
	}
	return c / (1 + float64(lambda*s)) // rounded: no fused multiply-add (DESIGN.md §3a)
}

// portBest is the best controllable source of one module operand port
// found so far: fed is set once any arc feeds the port, ok once a
// controllable one does.
type portBest struct {
	cc, sc  float64
	fed, ok bool
}

// nodeCtrlIn computes the controllability node id derives from its input
// lines: the best input line for registers (the node inherits the best
// controllability of any input line, paper §3), and the transfer through
// the module for module nodes (all operand ports must be controlled).
// ports is scratch indexed by operand port, grown as needed.
func (m *Metrics) nodeCtrlIn(w *etpn.Wiring, scan map[int]bool, id int, ports *[]portBest) (float64, float64, bool) {
	kind := w.Kind(id)
	if kind == etpn.KindRegister && scan[id] {
		return 0, 0, false // anchored by the scan chain
	}
	switch kind {
	case etpn.KindInPort, etpn.KindConst:
		return 0, 0, false // fixed sources
	case etpn.KindRegister, etpn.KindOutPort:
		bestC, bestS := 0.0, math.Inf(1)
		found := false
		for _, l := range w.Into(id) {
			cc, sc := m.CC[l.From], m.SC[l.From]
			if cc == 0 {
				continue
			}
			// Loading a register crosses one clock boundary.
			if kind == etpn.KindRegister {
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
		links := w.Into(id)
		n := 0
		for _, l := range links {
			n = max(n, l.Port+1)
		}
		if cap(*ports) < n {
			*ports = make([]portBest, n)
		}
		ps := (*ports)[:n]
		clear(ps)
		for _, l := range links {
			p := &ps[l.Port]
			p.fed = true
			cc, sc := m.CC[l.From], m.SC[l.From]
			if cc == 0 {
				continue
			}
			if !p.ok || better(cc, sc, p.cc, p.sc, 0) {
				p.cc, p.sc, p.ok = cc, sc, true
			}
		}
		cc, sc, fed := factorsOf(w.Class(id)).ctf, 0.0, false
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

// nodeObsOut computes the observability node id derives from its output
// lines: the best output line (paper §3). Observing a value through a
// module requires controlling the module's other operand ports, which
// scales the line observability by their controllability.
func (m *Metrics) nodeObsOut(w *etpn.Wiring, scan map[int]bool, id int) (float64, float64, bool) {
	kind := w.Kind(id)
	if kind == etpn.KindOutPort {
		return 0, 0, false // fixed sink
	}
	if kind == etpn.KindRegister && scan[id] {
		return 0, 0, false // anchored by the scan chain
	}
	bestC, bestS := 0.0, math.Inf(1)
	found := false
	for _, l := range w.From(id) {
		var co, so float64
		switch w.Kind(l.To) {
		case etpn.KindOutPort:
			co, so = 1, 0
		case etpn.KindRegister:
			co, so = m.CO[l.To]*regFactor, m.SO[l.To]+1
		case etpn.KindModule:
			co, so = m.CO[l.To], m.SO[l.To]
			co *= factorsOf(w.Class(l.To)).otf
			// Control of the sibling operand ports gates propagation.
			sibs := w.Into(l.To)
			for _, sib := range sibs {
				if sib.Port == l.Port {
					continue
				}
				// Best source controllability on the sibling port.
				best := 0.0
				for _, s2 := range sibs {
					if s2.Port == sib.Port && m.CC[s2.From] > best {
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

// Ctrl collapses (CC, SC) into a single controllability score in [0,1]:
// higher is easier to control.
func (m *Metrics) Ctrl(node int) float64 { return score(m.CC[node], m.SC[node]) }

// Obs collapses (CO, SO) into a single observability score in [0,1].
func (m *Metrics) Obs(node int) float64 { return score(m.CO[node], m.SO[node]) }

// Testability is the product of Ctrl and Obs: the overall ease of testing
// faults at the node.
func (m *Metrics) Testability(node int) float64 { return m.Ctrl(node) * m.Obs(node) }

// SeqDepth is the total sequential depth through the node: the number of
// register crossings on the best control path in plus the best observation
// path out. Lee's rule SR1 minimizes exactly this quantity.
func (m *Metrics) SeqDepth(node int) float64 { return m.SC[node] + m.SO[node] }

// BalanceScore scores merging node u into node v under the
// controllability/observability balance principle (paper §3): the first
// term is positive when one node contributes good controllability and the
// other good observability, and the second term values the testability the
// merged node inherits — the best controllability of any input line and
// the best observability of any output line of the pair.
func (m *Metrics) BalanceScore(u, v int) float64 {
	// float64(x*y) rounds each product that feeds the sum: no fused
	// multiply-add (DESIGN.md §3a).
	balance := float64((m.Ctrl(u) - m.Ctrl(v)) * (m.Obs(v) - m.Obs(u)))
	inherited := math.Max(m.Ctrl(u), m.Ctrl(v)) * math.Max(m.Obs(u), m.Obs(v))
	return balance + float64(0.01*inherited)
}

// Summary renders the metrics of every node for diagnostics.
func (m *Metrics) Summary(d *etpn.Design) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %6s %5s %6s %5s %7s %7s\n", "node", "CC", "SC", "CO", "SO", "Ctrl", "Obs")
	for _, nd := range d.Nodes {
		fmt.Fprintf(&b, "%-18s %6.3f %5.1f %6.3f %5.1f %7.4f %7.4f\n",
			nd.Name, m.CC[nd.ID], m.SC[nd.ID], m.CO[nd.ID], m.SO[nd.ID], m.Ctrl(nd.ID), m.Obs(nd.ID))
	}
	return b.String()
}

// MeanTestability averages Testability over registers and modules: the
// design-level figure the synthesis loop tries to maximize.
func MeanTestability(d *etpn.Design, m *Metrics) float64 {
	sum, cnt := 0.0, 0
	for _, nd := range d.Nodes {
		if nd.Kind == etpn.KindRegister || nd.Kind == etpn.KindModule {
			sum += m.Testability(nd.ID)
			cnt++
		}
	}
	if cnt == 0 {
		return 0
	}
	return sum / float64(cnt)
}

// ValueCtrl returns the controllability score of the register holding v
// (regOf is the allocation's RegOf), or of its input port if v is not
// stored, and 0 for a constant. nodes numbers the data path m analyzes;
// it needs no design (etpn.Numbering).
func ValueCtrl(m *Metrics, nodes *etpn.Numbering, regOf []int, v dfg.ValueID) float64 {
	if r := regOf[v]; r >= 0 {
		return m.Ctrl(nodes.RegNode(r))
	}
	if n, ok := nodes.InNode(v); ok {
		return m.Ctrl(n)
	}
	return 0
}
