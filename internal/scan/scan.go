// Package scan implements partial-scan register selection on top of the
// testability analysis — the design-for-test extension the paper's
// framework points toward (its references [1, 8, 10] all trade scan
// hardware for testability). Registers are selected greedily: each step
// scans the register whose conversion most improves the design's mean
// testability, re-running the CC/SC/CO/SO analysis with the already-scanned
// registers anchored like ports.
package scan

import (
	"sort"

	"repro/internal/etpn"
	"repro/internal/testability"
)

// Selection reports the chosen scan registers and the metric trajectory.
type Selection struct {
	// Regs lists allocation register ids in selection order.
	Regs []int
	// MeanTestability[i] is the design's mean testability with the first i
	// registers scanned (index 0 = no scan).
	MeanTestability []float64
}

// Select greedily chooses up to max scan registers. Selection stops early
// when no candidate improves mean testability by at least minGain.
func Select(d *etpn.Design, max int, minGain float64) *Selection {
	sel := &Selection{}
	scanned := map[int]bool{} // node ids
	evalWith := func(extra int) float64 {
		nodes := map[int]bool{}
		for n := range scanned {
			nodes[n] = true
		}
		if extra >= 0 {
			nodes[extra] = true
		}
		m := testability.Analyze(d, nodes)
		return testability.MeanTestability(d, m)
	}
	base := evalWith(-1)
	sel.MeanTestability = append(sel.MeanTestability, base)
	for len(sel.Regs) < max {
		bestReg, bestNode := -1, -1
		bestGain := minGain
		for _, r := range d.Alloc.Regs {
			node := d.RegNode(r.ID)
			if scanned[node] {
				continue
			}
			gain := evalWith(node) - base
			if gain > bestGain {
				bestGain, bestReg, bestNode = gain, r.ID, node
			}
		}
		if bestReg < 0 {
			break
		}
		scanned[bestNode] = true
		sel.Regs = append(sel.Regs, bestReg)
		base = evalWith(-1)
		sel.MeanTestability = append(sel.MeanTestability, base)
	}
	return sel
}

// SelectBIST chooses registers to reconfigure for built-in self-test
// (rtl.GenerateBIST): pattern-generator (TPG) registers are those feeding
// the hardest-to-control modules, signature (MISR) registers those
// capturing the hardest-to-observe module outputs — the BIST placement
// rule of the paper's reference [10]. The two sets are disjoint; TPG
// choices take precedence.
func SelectBIST(d *etpn.Design, m *testability.Metrics, nTpg, nMisr int) (tpg, misr []int) {
	type ent struct {
		reg   int
		score float64
	}
	var tpgEnts, misrEnts []ent
	for _, r := range d.Alloc.Regs {
		node := d.RegNode(r.ID)
		worstCtrl, worstObs := 0.0, 0.0
		for _, a := range d.ArcsFrom(node) {
			if d.Nodes[a.To].Kind == etpn.KindModule {
				if need := 1 - m.Ctrl(a.To); need > worstCtrl {
					worstCtrl = need
				}
			}
		}
		for _, a := range d.ArcsInto(node) {
			if d.Nodes[a.From].Kind == etpn.KindModule {
				if need := 1 - m.Obs(a.From); need > worstObs {
					worstObs = need
				}
			}
		}
		tpgEnts = append(tpgEnts, ent{r.ID, worstCtrl})
		misrEnts = append(misrEnts, ent{r.ID, worstObs})
	}
	byScore := func(es []ent) {
		sort.Slice(es, func(i, j int) bool {
			if es[i].score != es[j].score {
				return es[i].score > es[j].score
			}
			return es[i].reg < es[j].reg
		})
	}
	byScore(tpgEnts)
	byScore(misrEnts)
	taken := map[int]bool{}
	for _, e := range tpgEnts {
		if len(tpg) >= nTpg || e.score <= 0 {
			break
		}
		tpg = append(tpg, e.reg)
		taken[e.reg] = true
	}
	for _, e := range misrEnts {
		if len(misr) >= nMisr {
			break
		}
		if taken[e.reg] || e.score <= 0 {
			continue
		}
		misr = append(misr, e.reg)
	}
	return tpg, misr
}
