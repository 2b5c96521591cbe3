// Package cost estimates the hardware cost H of an ETPN data path (paper
// §4.2): H = Σ Area(V_i) + Σ Len(A_j) × Wid(A_j), where module and register
// areas come from a module library parameterized by bit width, connection
// lengths come from a simple connectivity-driven floorplan in the manner of
// Peng & Kuchcinski [14], and connection widths are the bit width times a
// weight factor. Multiplexers implied by the allocation are charged to
// their destination nodes.
//
// Areas are in normalized units; the library preserves the relative cost
// structure of the paper's experiments (multiplier ≫ ALU ≈ adder >
// register > mux, multiplier quadratic in width).
package cost

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/etpn"
)

// Library supplies per-component area models.
type Library struct {
	// RegPerBit is the register area per bit.
	RegPerBit float64
	// AddPerBit is the adder/subtracter/ALU area per bit.
	AddPerBit float64
	// CmpPerBit is the comparator area per bit.
	CmpPerBit float64
	// LogicPerBit is the bitwise-logic unit area per bit.
	LogicPerBit float64
	// MulPerBit2 is the array-multiplier area per bit squared.
	MulPerBit2 float64
	// MuxPerBitInput is the multiplexer area per bit per extra input.
	MuxPerBitInput float64
	// WireWeight scales connection width (paper: bit width times a given
	// weighted factor).
	WireWeight float64
}

// DefaultLibrary returns the library used across the reproduction.
func DefaultLibrary() *Library {
	return &Library{
		RegPerBit:      8,
		AddPerBit:      24,
		CmpPerBit:      12,
		LogicPerBit:    8,
		MulPerBit2:     20,
		MuxPerBitInput: 4,
		WireWeight:     0.05,
	}
}

// ModuleArea returns the area of a functional module of the given class at
// the given bit width.
func (l *Library) ModuleArea(class string, width int) float64 {
	w := float64(width)
	switch class {
	case "*":
		return l.MulPerBit2 * w * w
	case "+", "-", "±":
		return l.AddPerBit * w
	case "<", ">", "==":
		return l.CmpPerBit * w
	case "&", "|", "^", "~", "mov", "logic":
		return l.LogicPerBit * w
	default:
		return l.AddPerBit * w
	}
}

// RegisterArea returns the area of a width-bit register, rounded so that
// no architecture may fuse it into the caller's sum (DESIGN.md §3a).
func (l *Library) RegisterArea(width int) float64 { return float64(l.RegPerBit * float64(width)) }

// MuxArea returns the area of an inputs-to-1 multiplexer at the given
// width; 0 or 1 inputs need no hardware.
func (l *Library) MuxArea(width, inputs int) float64 {
	if inputs <= 1 {
		return 0
	}
	return l.MuxPerBitInput * float64(width) * float64(inputs-1)
}

// Estimate is the cost breakdown of a design.
type Estimate struct {
	ModuleArea float64
	RegArea    float64
	MuxArea    float64
	WireArea   float64
	Total      float64
}

// String renders the estimate.
func (e Estimate) String() string {
	return fmt.Sprintf("total %.0f (modules %.0f, regs %.0f, muxes %.0f, wires %.0f)",
		e.Total, e.ModuleArea, e.RegArea, e.MuxArea, e.WireArea)
}

// Floorplan places the data-path nodes of d on an integer grid with a
// connectivity-driven greedy heuristic: nodes in decreasing connectivity
// order, each placed on the free grid slot minimizing the total Manhattan
// distance to its already-placed neighbours. Positions are deterministic
// and indexed by node id.
func Floorplan(d *etpn.Design) [][2]int {
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

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// EstimateDesign computes the full cost estimate of a design at the given
// bit width: component areas from the library, multiplexers inferred from
// the arc structure, and wire cost from the floorplan. The cell pitch used
// to convert grid distance to length is the square root of the mean
// component area, so wire cost scales with component size as in a real
// layout.
func EstimateDesign(d *etpn.Design, lib *Library, width int) Estimate {
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
	d.MuxInputs(func(sources int) { e.MuxArea += lib.MuxArea(width, sources) })
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
	pos := Floorplan(d)
	for _, a := range d.Arcs {
		p, q := pos[a.From], pos[a.To]
		dist := float64(abs(p[0]-q[0]) + abs(p[1]-q[1]))
		// Rounded product: no fused multiply-add (DESIGN.md §3a).
		e.WireArea += float64(dist * pitch * float64(width) * lib.WireWeight)
	}
	e.Total = e.ModuleArea + e.RegArea + e.MuxArea + e.WireArea
	return e
}
