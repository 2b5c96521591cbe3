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
	"sort"
	"strings"

	"repro/internal/dfg"
	"repro/internal/etpn"
)

// Factors are the per-module-class transfer factors: CTF scales
// controllability through the module, OTF scales observability.
type Factors struct {
	CTF float64
	OTF float64
}

// DefaultFactors maps module classes (sched.ExactClass / sched.ALUClass
// names) to transfer factors. Multipliers are markedly harder to observe
// through than to control through; comparators compress a word to one bit
// and are nearly opaque for observability.
var DefaultFactors = map[string]Factors{
	"+":     {0.90, 0.90},
	"-":     {0.90, 0.90},
	"±":     {0.90, 0.90},
	"*":     {0.70, 0.50},
	"<":     {0.50, 0.30},
	">":     {0.50, 0.30},
	"==":    {0.50, 0.30},
	"&":     {0.95, 0.80},
	"|":     {0.95, 0.80},
	"^":     {0.95, 0.95},
	"~":     {1.00, 1.00},
	"mov":   {1.00, 1.00},
	"logic": {0.95, 0.80},
}

// Config tunes the analysis.
type Config struct {
	// RegFactor degrades combinational measures per register crossing.
	RegFactor float64
	// ConstCC is the controllability of a wired constant: its value is
	// known but cannot be chosen, restricting fault sensitization.
	ConstCC float64
	// Lambda weights sequential depth when collapsing (CC,SC) into a single
	// controllability score (see Ctrl/Obs).
	Lambda float64
	// Factors overrides DefaultFactors per class when non-nil.
	Factors map[string]Factors
	// MaxIter bounds the fixpoint iteration.
	MaxIter int
	// Eps is the convergence threshold.
	Eps float64
	// ScanNodes marks data-path register nodes implemented as scan
	// registers: they are directly controllable and observable through the
	// scan chain, so the analysis anchors them like primary ports. Keys
	// are data-path node ids.
	ScanNodes map[int]bool
}

// DefaultConfig returns the configuration used throughout the paper
// reproduction.
func DefaultConfig() Config {
	return Config{RegFactor: 0.98, ConstCC: 0.60, Lambda: 0.5, MaxIter: 200, Eps: 1e-9}
}

// Metrics holds the four testability measures per data-path node id.
type Metrics struct {
	CC, SC, CO, SO []float64
	cfg            Config
}

func (c Config) factors(class string) Factors {
	tbl := c.Factors
	if tbl == nil {
		tbl = DefaultFactors
	}
	if f, ok := tbl[class]; ok {
		return f
	}
	return Factors{0.85, 0.75}
}

// Analyze computes the testability metrics of every node of d's data path.
func Analyze(d *etpn.Design, cfg Config) *Metrics {
	n := len(d.Nodes)
	m := &Metrics{
		CC: make([]float64, n), SC: make([]float64, n),
		CO: make([]float64, n), SO: make([]float64, n),
		cfg: cfg,
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
			m.CC[nd.ID], m.SC[nd.ID] = cfg.ConstCC, 0
		case etpn.KindOutPort:
			m.CO[nd.ID], m.SO[nd.ID] = 1, 0
		case etpn.KindRegister:
			if cfg.ScanNodes[nd.ID] {
				// Scan registers load through the chain (one scan cycle)
				// and are observed through it directly.
				m.CC[nd.ID], m.SC[nd.ID] = 1, 1
				m.CO[nd.ID], m.SO[nd.ID] = 1, 0
			}
		}
	}

	// Forward controllability fixpoint.
	for iter := 0; iter < cfg.MaxIter; iter++ {
		changed := false
		for _, nd := range d.Nodes {
			cc, sc, ok := m.nodeCtrlIn(d, nd)
			if !ok {
				continue
			}
			if better(cc, sc, m.CC[nd.ID], m.SC[nd.ID], cfg.Lambda, cfg.Eps) {
				m.CC[nd.ID], m.SC[nd.ID] = cc, sc
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	// Backward observability fixpoint.
	for iter := 0; iter < cfg.MaxIter; iter++ {
		changed := false
		for _, nd := range d.Nodes {
			co, so, ok := m.nodeObsOut(d, nd)
			if !ok {
				continue
			}
			if better(co, so, m.CO[nd.ID], m.SO[nd.ID], cfg.Lambda, cfg.Eps) {
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
	return m
}

// better reports whether the candidate (combinational, sequential) pair
// scores higher than the incumbent under the lambda-collapsed metric.
func better(c, s, oc, os, lambda, eps float64) bool {
	return score(c, s, lambda) > score(oc, os, lambda)+eps
}

func score(c, s, lambda float64) float64 {
	if math.IsInf(s, 1) {
		return 0
	}
	return c / (1 + lambda*s)
}

// nodeCtrlIn computes the controllability a node derives from its input
// lines: the best input line for registers (the node inherits the best
// controllability of any input line, paper §3), and the transfer through
// the module for module nodes (all operand ports must be controlled).
func (m *Metrics) nodeCtrlIn(d *etpn.Design, nd *etpn.Node) (float64, float64, bool) {
	if nd.Kind == etpn.KindRegister && m.cfg.ScanNodes[nd.ID] {
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
				cc *= m.cfg.RegFactor
				sc++
			}
			if !found || better(cc, sc, bestC, bestS, m.cfg.Lambda, 0) {
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
			if !ok || better(cc, sc, cur[0], cur[1], m.cfg.Lambda, 0) {
				ports[a.ToPort] = [2]float64{cc, sc}
			}
		}
		if len(ports) == 0 || len(ports) != len(allPorts) {
			return 0, 0, false
		}
		f := m.cfg.factors(nd.Class)
		cc := f.CTF
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

// nodeObsOut computes the observability a node derives from its output
// lines: the best output line (paper §3). Observing a value through a
// module requires controlling the module's other operand ports, which
// scales the line observability by their controllability.
func (m *Metrics) nodeObsOut(d *etpn.Design, nd *etpn.Node) (float64, float64, bool) {
	if nd.Kind == etpn.KindOutPort {
		return 0, 0, false // fixed sink
	}
	if nd.Kind == etpn.KindRegister && m.cfg.ScanNodes[nd.ID] {
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
			co, so = m.CO[a.To]*m.cfg.RegFactor, m.SO[a.To]+1
		case etpn.KindModule:
			co, so = m.CO[a.To], m.SO[a.To]
			f := m.cfg.factors(to.Class)
			co *= f.OTF
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
		if !found || better(co, so, bestC, bestS, m.cfg.Lambda, 0) {
			bestC, bestS, found = co, so, true
		}
	}
	return bestC, bestS, found
}

// Config returns the configuration the metrics were computed with.
func (m *Metrics) Config() Config { return m.cfg }

// Ctrl collapses (CC, SC) into a single controllability score in [0,1]:
// higher is easier to control.
func (m *Metrics) Ctrl(node int) float64 { return score(m.CC[node], m.SC[node], m.cfg.Lambda) }

// Obs collapses (CO, SO) into a single observability score in [0,1].
func (m *Metrics) Obs(node int) float64 { return score(m.CO[node], m.SO[node], m.cfg.Lambda) }

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
	balance := (m.Ctrl(u) - m.Ctrl(v)) * (m.Obs(v) - m.Obs(u))
	inherited := math.Max(m.Ctrl(u), m.Ctrl(v)) * math.Max(m.Obs(u), m.Obs(v))
	return balance + 0.01*inherited
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

// ValueCtrl returns the controllability score of the register holding v,
// or of its port/constant if not stored.
func ValueCtrl(d *etpn.Design, m *Metrics, v dfg.ValueID) float64 {
	if r := d.Alloc.RegOf[v]; r >= 0 {
		return m.Ctrl(d.RegNode(r))
	}
	if n, ok := d.InNode(v); ok {
		return m.Ctrl(n)
	}
	return 0
}
