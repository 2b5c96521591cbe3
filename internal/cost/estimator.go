package cost

import (
	"math"
	"slices"

	"repro/internal/alloc"
	"repro/internal/dfg"
	"repro/internal/etpn"
	"repro/internal/sched"
)

// MuxStats summarizes the multiplexing an allocation requires.
type MuxStats struct {
	Muxes  int // number of multiplexers (destinations with >1 source)
	Inputs int // total multiplexer inputs
}

// Estimator costs data paths without building an ETPN design: it derives
// the wiring Build would lay out into arrays it keeps between calls, so
// costing allocates nothing once they have grown. An Estimator serves one
// goroutine at a time.
type Estimator struct {
	lib   *Library
	width int
	w     etpn.Wiring

	// sources counts the links into each (node, port) destination.
	sources []int
	// Floorplan scratch: every node's neighbour ends, their distinct
	// neighbours with arc counts as weights (node i's are nbrs[adj[i]:
	// adj[i+1]]), the placement order, the positions and the per-column
	// and per-row weighted distances of the node being placed.
	off, cur, ends, adj []int
	nbrs                []neighbour
	order               []int
	pos                 [][2]int
	placed, used        []bool
	fx, fy              []int
}

type neighbour struct{ node, w int }

// NewEstimator returns an estimator at the given bit width with library
// lib (DefaultLibrary when nil).
func NewEstimator(lib *Library, width int) *Estimator {
	if lib == nil {
		lib = DefaultLibrary()
	}
	return &Estimator{lib: lib, width: width}
}

// Estimate computes the cost of the data path etpn.Build derives from (g,
// s, a, life, loop), and the multiplexing it requires, failing exactly
// where Build fails and with its message. Component areas come from the
// library, multiplexers from the sources of every module operand port and
// register input, and wire cost from the floorplan. The cell pitch that
// converts grid distance to length is the square root of the mean
// component area, so wire cost scales with component size as in a real
// layout.
//
// The estimate reads only the links, which depend on the graph and the
// allocation alone: H is a function of (graph, allocation, width,
// library). The schedule and lifetimes feed Build's checks. Every sum runs
// in the design's order: areas in node order, multiplexers by node then
// port, wires in arc order.
func (k *Estimator) Estimate(g *dfg.Graph, s sched.Schedule, a *alloc.Allocation, life alloc.Life, loop string) (Estimate, MuxStats, error) {
	e, mux, err := k.estimate(g, s, a, life, loop)
	if observe != nil {
		observe(k, g, s, a, life, loop, e, mux, err)
	}
	return e, mux, err
}

// observe is a test hook: when set, Estimate passes it every call's
// estimator, arguments and results.
var observe func(k *Estimator, g *dfg.Graph, s sched.Schedule, a *alloc.Allocation, life alloc.Life, loop string, e Estimate, m MuxStats, err error)

func (k *Estimator) estimate(g *dfg.Graph, s sched.Schedule, a *alloc.Allocation, life alloc.Life, loop string) (Estimate, MuxStats, error) {
	if err := k.w.Derive(g, s, a, life, loop); err != nil {
		return Estimate{}, MuxStats{}, err
	}
	lib, width := k.lib, k.width
	var e Estimate
	for _, m := range a.Modules {
		e.ModuleArea += lib.ModuleArea(m.Class, width)
	}
	for range a.Regs {
		e.RegArea += lib.RegisterArea(width)
	}
	// A destination's sources are the links into it: a link is unique by
	// (from, to, port). Registers and modules are the last nodes.
	n, links := k.w.Nodes(), k.w.Links()
	slots := 1 // port -1 is slot 0
	for _, l := range links {
		slots = max(slots, l.Port+2)
	}
	k.sources = resize(k.sources, n*slots)
	clear(k.sources)
	for _, l := range links {
		k.sources[l.To*slots+l.Port+1]++
	}
	var mux MuxStats
	comps := len(a.Regs) + len(a.Modules)
	for _, c := range k.sources[(n-comps)*slots:] {
		if c > 1 {
			e.MuxArea += lib.MuxArea(width, c)
			mux.Muxes++
			mux.Inputs += c
		}
	}
	pitch := 1.0
	if comps > 0 {
		pitch = math.Sqrt((e.ModuleArea + e.RegArea + e.MuxArea) / float64(comps))
	}
	pos := k.place(n, links)
	for _, l := range links {
		p, q := pos[l.From], pos[l.To]
		dist := float64(abs(p[0]-q[0]) + abs(p[1]-q[1]))
		// Rounded product: no fused multiply-add (DESIGN.md §3a).
		e.WireArea += float64(dist * pitch * float64(width) * lib.WireWeight)
	}
	e.Total = e.ModuleArea + e.RegArea + e.MuxArea + e.WireArea
	return e, mux, nil
}

// place puts the n data-path nodes on an integer grid with a
// connectivity-driven greedy heuristic (Peng & Kuchcinski [14]): nodes in
// decreasing connectivity order, each on the free grid slot minimizing
// the weighted Manhattan distance to its already-placed neighbours, where
// a neighbour's weight is the number of links between the pair in either
// direction and self-links do not count. Positions are indexed by node id
// and valid until the next call.
func (k *Estimator) place(n int, links []etpn.Link) [][2]int {
	// Neighbour ends per node, then sorted and counted per node.
	k.off = resize(k.off, n+1)
	clear(k.off)
	for _, l := range links {
		if l.From != l.To {
			k.off[l.From+1]++
			k.off[l.To+1]++
		}
	}
	for i := 0; i < n; i++ {
		k.off[i+1] += k.off[i]
	}
	k.cur = resize(k.cur, n)
	copy(k.cur, k.off)
	k.ends = resize(k.ends, k.off[n])
	for _, l := range links {
		if l.From != l.To {
			k.ends[k.cur[l.From]] = l.To
			k.cur[l.From]++
			k.ends[k.cur[l.To]] = l.From
			k.cur[l.To]++
		}
	}
	k.adj = resize(k.adj, n+1)
	k.nbrs = k.nbrs[:0]
	for i := 0; i < n; i++ {
		ends := k.ends[k.off[i]:k.off[i+1]]
		slices.Sort(ends)
		k.adj[i] = len(k.nbrs)
		for j, q := range ends {
			if j > 0 && q == ends[j-1] {
				k.nbrs[len(k.nbrs)-1].w++
				continue
			}
			k.nbrs = append(k.nbrs, neighbour{q, 1})
		}
	}
	k.adj[n] = len(k.nbrs)
	adj := k.adj
	k.order = resize(k.order, n)
	for i := range k.order {
		k.order[i] = i
	}
	slices.SortFunc(k.order, func(a, b int) int {
		if da, db := adj[a+1]-adj[a], adj[b+1]-adj[b]; da != db {
			return db - da
		}
		return a - b
	})

	side := int(math.Ceil(math.Sqrt(float64(n)))) + 2
	slots := side * side
	k.pos = resize(k.pos, n)
	k.placed = resize(k.placed, n)
	clear(k.placed)
	k.used = resize(k.used, slots) // used[x+y*side]
	clear(k.used)
	k.fx, k.fy = resize(k.fx, side), resize(k.fy, side)
	pos, placed, used, fx, fy := k.pos, k.placed, k.used, k.fx, k.fy
	for _, id := range k.order {
		// The weighted distance to the placed neighbours separates into
		// a column term fx[x] and a row term fy[y].
		clear(fx)
		clear(fy)
		for _, nb := range k.nbrs[adj[id]:adj[id+1]] {
			if !placed[nb.node] {
				continue
			}
			p := pos[nb.node]
			for c := 0; c < side; c++ {
				fx[c] += nb.w * abs(c-p[0])
				fy[c] += nb.w * abs(c-p[1])
			}
		}
		// The placement rule is the free slot of least float64 cost
		// dist + 1e-6·(x + y·side). That orders slots by the integer
		// distance first and the slot index second: 1e-6·index < 1 on any
		// grid under a million slots, and a float64 near a distance this
		// small resolves steps of 1e-6. So the integer key
		// dist·slots + index orders the slots exactly as the cost does.
		// Rows are scanned in index order and skipped once even their
		// least column term cannot beat the best key.
		minX := slices.Min(fx)
		best, bestKey := 0, math.MaxInt
		for y := 0; y < side; y++ {
			row := y * side
			if (fy[y]+minX)*slots+row >= bestKey {
				continue
			}
			for x := 0; x < side; x++ {
				if key := (fx[x]+fy[y])*slots + row + x; key < bestKey && !used[row+x] {
					best, bestKey = row+x, key
				}
			}
		}
		pos[id] = [2]int{best % side, best / side}
		placed[id] = true
		used[best] = true
	}
	return pos
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// resize returns s with length n, reusing its array when it is large
// enough; the contents are stale.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
