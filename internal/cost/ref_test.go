package cost

import (
	"math"
	"slices"

	"repro/internal/alloc"
	"repro/internal/dfg"
	"repro/internal/etpn"
	"repro/internal/sched"
)

// This file keeps the design-based floorplan, estimate and multiplexer
// count that the Estimator replaced, verbatim apart from names, as the
// reference the differential tests compare against, and the setter of
// Estimate's test hook.

// RefFloorplan, RefEstimateDesign and RefMuxStats export the reference to
// the external differential tests, which need the synthesis core to reach
// the designs.
var (
	RefFloorplan      = refFloorplan
	RefEstimateDesign = refEstimateDesign
	RefMuxStats       = refMuxStats
)

// Costed is one Estimate call seen by the hook: the estimator's width and
// library, the arguments and the results.
type Costed struct {
	Width int
	Lib   *Library
	G     *dfg.Graph
	S     sched.Schedule
	A     *alloc.Allocation
	Life  alloc.Life
	Loop  string
	Est   Estimate
	Mux   MuxStats
	Err   error
}

// Observe passes every Estimate call to f until the returned function
// restores the hook. f runs on the calling goroutine, inside the call.
func Observe(f func(Costed)) (restore func()) {
	observe = func(k *Estimator, g *dfg.Graph, s sched.Schedule, a *alloc.Allocation, life alloc.Life, loop string, e Estimate, m MuxStats, err error) {
		f(Costed{k.width, k.lib, g, s, a, life, loop, e, m, err})
	}
	return func() { observe = nil }
}

// KernelFloorplan returns a copy of the Estimator's placement of d's
// nodes.
func KernelFloorplan(d *etpn.Design) ([][2]int, error) {
	k := NewEstimator(nil, d.G.Width)
	if err := k.w.Derive(d.G, d.Sched, d.Alloc, d.Life, d.LoopSignal); err != nil {
		return nil, err
	}
	return slices.Clone(k.place(k.w.Nodes(), k.w.Links())), nil
}

// refFloorplan places the data-path nodes of d on an integer grid with a
// connectivity-driven greedy heuristic: nodes in decreasing connectivity
// order, each placed on the free grid slot minimizing the total Manhattan
// distance to its already-placed neighbours. Positions are deterministic
// and indexed by node id.
func refFloorplan(d *etpn.Design) [][2]int {
	n := len(d.Nodes)
	// Neighbour lists, ascending by node: a neighbour's weight is the
	// number of arcs between the pair, in either direction; self-arcs do
	// not count.
	type neighbour struct{ node, w int }
	adj := make([][]neighbour, n)
	backing := make([]neighbour, 0, 2*len(d.Arcs))
	var ends []int
	for i := 0; i < n; i++ {
		ends = ends[:0]
		for _, a := range d.ArcsInto(i) {
			if a.From != i {
				ends = append(ends, a.From)
			}
		}
		for _, a := range d.ArcsFrom(i) {
			if a.To != i {
				ends = append(ends, a.To)
			}
		}
		slices.Sort(ends)
		start := len(backing)
		for j, q := range ends {
			if j > 0 && q == ends[j-1] {
				backing[len(backing)-1].w++
				continue
			}
			backing = append(backing, neighbour{q, 1})
		}
		adj[i] = backing[start:]
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if da, db := len(adj[a]), len(adj[b]); da != db {
			return db - da
		}
		return a - b
	})
	pos := make([][2]int, n)
	placed := make([]bool, n)
	side := int(math.Ceil(math.Sqrt(float64(n)))) + 2
	used := make([]bool, side*side) // used[x+y*side]
	type anchor struct{ x, y, w int }
	var anchors []anchor
	for _, id := range order {
		anchors = anchors[:0]
		for _, nb := range adj[id] {
			if placed[nb.node] {
				anchors = append(anchors, anchor{pos[nb.node][0], pos[nb.node][1], nb.w})
			}
		}
		best := [2]int{0, 0}
		bestCost := math.Inf(1)
		for y := 0; y < side; y++ {
			for x := 0; x < side; x++ {
				if used[x+y*side] {
					continue
				}
				// The weighted distance is an integer, so it is exact as a
				// float64 whatever the summation order.
				dist := 0
				for _, q := range anchors {
					dist += q.w * (abs(x-q.x) + abs(y-q.y))
				}
				// Deterministic tie-break: prefer slots near the origin.
				// The rounded product forbids a fused multiply-add
				// (DESIGN.md §3a).
				c := float64(dist) + float64(1e-6*float64(x+y*side))
				if c < bestCost {
					bestCost = c
					best = [2]int{x, y}
				}
			}
		}
		pos[id] = best
		placed[id] = true
		used[best[0]+best[1]*side] = true
	}
	return pos
}

// refEstimateDesign computes the full cost estimate of a design at the
// given bit width: component areas from the library, multiplexers inferred
// from the arc structure, and wire cost from the floorplan. The cell pitch
// used to convert grid distance to length is the square root of the mean
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
	// Multiplexers: one per destination (node, port) with multiple sources,
	// summed by node id, then port.
	refMuxInputs(d, func(sources int) { e.MuxArea += lib.MuxArea(width, sources) })
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
		// Rounded product: no fused multiply-add (DESIGN.md §3a).
		e.WireArea += float64(dist * pitch * float64(width) * lib.WireWeight)
	}
	e.Total = e.ModuleArea + e.RegArea + e.MuxArea + e.WireArea
	return e
}

// refMuxStats counts the multiplexers refMuxInputs implies and their
// inputs.
func refMuxStats(d *etpn.Design) MuxStats {
	var ms MuxStats
	refMuxInputs(d, func(sources int) {
		if sources > 1 {
			ms.Muxes++
			ms.Inputs += sources
		}
	})
	return ms
}

// refMuxInputs calls visit with the number of distinct data sources of
// every module operand port and register input, in node then port order.
// A destination fed by more than one source needs a multiplexer with that
// many inputs.
func refMuxInputs(d *etpn.Design, visit func(sources int)) {
	var srcs [][2]int // (port, source) of the arcs into one node
	for _, nd := range d.Nodes {
		if nd.Kind != etpn.KindModule && nd.Kind != etpn.KindRegister {
			continue
		}
		srcs = srcs[:0]
		for _, a := range d.ArcsInto(nd.ID) {
			srcs = append(srcs, [2]int{a.ToPort, a.From})
		}
		slices.SortFunc(srcs, func(a, b [2]int) int {
			if a[0] != b[0] {
				return a[0] - b[0]
			}
			return a[1] - b[1]
		})
		for i := 0; i < len(srcs); {
			j, distinct := i+1, 1
			for ; j < len(srcs) && srcs[j][0] == srcs[i][0]; j++ {
				if srcs[j][1] != srcs[j-1][1] {
					distinct++
				}
			}
			visit(distinct)
			i = j
		}
	}
}
