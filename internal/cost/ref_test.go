package cost

import (
	"math"
	"sort"

	"repro/internal/etpn"
)

// This file keeps the map-based floorplan and estimate that the dense
// kernels replaced, verbatim apart from names, as the reference the
// differential tests in diff_test.go compare against.

// RefFloorplan and RefEstimateDesign export the reference to the external
// differential test, which needs the synthesis core to reach final designs.
var (
	RefFloorplan      = refFloorplan
	RefEstimateDesign = refEstimateDesign
)

// refFloorplan places the data-path nodes of d on an integer grid with a
// connectivity-driven greedy heuristic: nodes in decreasing connectivity
// order, each placed on the free grid slot minimizing the total Manhattan
// distance to its already-placed neighbours. Positions are deterministic.
func refFloorplan(d *etpn.Design) map[int][2]int {
	n := len(d.Nodes)
	adj := make(map[int]map[int]int, n)
	bump := func(a, b int) {
		if adj[a] == nil {
			adj[a] = map[int]int{}
		}
		adj[a][b]++
	}
	for _, a := range d.Arcs {
		if a.From == a.To {
			continue
		}
		bump(a.From, a.To)
		bump(a.To, a.From)
	}
	order := make([]int, 0, n)
	for _, nd := range d.Nodes {
		order = append(order, nd.ID)
	}
	sort.Slice(order, func(i, j int) bool {
		di, dj := len(adj[order[i]]), len(adj[order[j]])
		if di != dj {
			return di > dj
		}
		return order[i] < order[j]
	})
	pos := make(map[int][2]int, n)
	used := map[[2]int]bool{}
	side := int(math.Ceil(math.Sqrt(float64(n)))) + 2
	for _, id := range order {
		best := [2]int{0, 0}
		bestCost := math.Inf(1)
		for y := 0; y < side; y++ {
			for x := 0; x < side; x++ {
				p := [2]int{x, y}
				if used[p] {
					continue
				}
				c := 0.0
				for nb, w := range adj[id] {
					if q, placed := pos[nb]; placed {
						c += float64(w) * float64(abs(p[0]-q[0])+abs(p[1]-q[1]))
					}
				}
				// Deterministic tie-break: prefer slots near the origin.
				c += 1e-6 * float64(p[0]+p[1]*side)
				if c < bestCost {
					bestCost = c
					best = p
				}
			}
		}
		pos[id] = best
		used[best] = true
	}
	return pos
}

// refEstimateDesign computes the full cost estimate of a design at the given
// bit width: component areas from the library, multiplexers inferred from
// the arc structure, and wire cost from the floorplan. The cell pitch used
// to convert grid distance to length is the square root of the mean
// component area, so wire cost scales with component size as in a real
// layout.
func refEstimateDesign(d *etpn.Design, lib *Library, width int) Estimate {
	if lib == nil {
		lib = DefaultLibrary()
	}
	var e Estimate
	for _, nd := range d.Nodes {
		switch nd.Kind {
		case etpn.KindModule:
			e.ModuleArea += lib.ModuleArea(nd.Class, width)
		case etpn.KindRegister:
			e.RegArea += lib.RegisterArea(width)
		}
	}
	// Multiplexers: one per destination (node, port) with multiple sources.
	type dest struct{ node, port int }
	srcs := map[dest]map[int]bool{}
	for _, a := range d.Arcs {
		to := d.Nodes[a.To]
		if to.Kind != etpn.KindModule && to.Kind != etpn.KindRegister {
			continue
		}
		k := dest{a.To, a.ToPort}
		if srcs[k] == nil {
			srcs[k] = map[int]bool{}
		}
		srcs[k][a.From] = true
	}
	for _, set := range srcs {
		e.MuxArea += lib.MuxArea(width, len(set))
	}
	// Wires.
	nComp := 0
	compArea := e.ModuleArea + e.RegArea + e.MuxArea
	for _, nd := range d.Nodes {
		if nd.Kind == etpn.KindModule || nd.Kind == etpn.KindRegister {
			nComp++
		}
	}
	pitch := 1.0
	if nComp > 0 {
		pitch = math.Sqrt(compArea / float64(nComp))
	}
	pos := refFloorplan(d)
	for _, a := range d.Arcs {
		p, q := pos[a.From], pos[a.To]
		dist := float64(abs(p[0]-q[0]) + abs(p[1]-q[1]))
		e.WireArea += dist * pitch * float64(width) * lib.WireWeight
	}
	e.Total = e.ModuleArea + e.RegArea + e.MuxArea + e.WireArea
	return e
}
