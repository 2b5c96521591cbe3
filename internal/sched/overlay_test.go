package sched

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dfg"
)

// Overlay kinds drawn by candidateArcs.
const (
	overlayChain   = iota // a merge order through random nodes
	overlayPairs          // strict+weak pairs, some repeating base arcs
	overlayBack           // arcs against a topological order
	overlayOverrun        // a strict chain along it, longer than MaxLen
	overlayKinds
)

// candidateArcs draws one seeded candidate overlay of the given kind over
// p. order is a topological order of p's data flow alone.
func candidateArcs(p *Problem, order []dfg.NodeID, rng *rand.Rand, kind int) (strict, weak [][2]dfg.NodeID) {
	nn := len(order)
	pos := make([]int, nn)
	for i, n := range order {
		pos[n] = i
	}
	node := func() dfg.NodeID { return dfg.NodeID(rng.Intn(nn)) }
	switch kind {
	case overlayChain:
		perm := rng.Perm(nn)[:min(nn, 2+rng.Intn(6))]
		nodes := make([]dfg.NodeID, len(perm))
		for i, n := range perm {
			nodes[i] = dfg.NodeID(n)
		}
		strict = ChainArcs(nodes)
	case overlayPairs:
		for i := 1 + rng.Intn(5); i > 0; i-- {
			a, b := node(), node()
			if pos[a] > pos[b] {
				a, b = b, a
			}
			arc := [2]dfg.NodeID{a, b}
			switch rng.Intn(6) {
			case 0:
				if len(p.Extra) > 0 {
					arc = p.Extra[rng.Intn(len(p.Extra))]
				}
			case 1:
				if len(p.ExtraWeak) > 0 {
					arc = p.ExtraWeak[rng.Intn(len(p.ExtraWeak))]
				}
			}
			if rng.Intn(2) == 0 {
				strict = append(strict, arc)
			}
			weak = append(weak, arc)
			if rng.Intn(4) == 0 {
				weak = append(weak, arc) // a repeat within the overlay
			}
		}
	case overlayBack:
		for i := 1 + rng.Intn(3); i > 0; i-- {
			a, b := node(), node()
			if pos[a] < pos[b] {
				a, b = b, a
			}
			if rng.Intn(2) == 0 {
				strict = append(strict, [2]dfg.NodeID{a, b})
			} else {
				weak = append(weak, [2]dfg.NodeID{a, b})
			}
		}
	case overlayOverrun:
		m := min(nn, p.MaxLen+1+rng.Intn(2))
		if p.MaxLen == 0 {
			m = min(nn, 2+rng.Intn(nn))
		}
		picked := rng.Perm(nn)[:m]
		slices.SortFunc(picked, func(x, y int) int { return pos[x] - pos[y] })
		nodes := make([]dfg.NodeID, m)
		for i, n := range picked {
			nodes[i] = dfg.NodeID(n)
		}
		strict = ChainArcs(nodes)
	}
	return strict, weak
}

// candidateModules returns a module binding for a candidate over p: p's
// own, p's with two of its modules merged (as a module merger does), or a
// fresh random one.
func candidateModules(p *Problem, rng *rand.Rand) []int {
	mod := slices.Clone(p.ModuleOf)
	switch rng.Intn(3) {
	case 1:
		a, b := mod[rng.Intn(len(mod))], mod[rng.Intn(len(mod))]
		for n, m := range mod {
			if m == b {
				mod[n] = a
			}
		}
	case 2:
		for n := range mod {
			mod[n] = rng.Intn(4) - 1
		}
	}
	return mod
}

// TestOverlayMatchesClone solves seeded candidate overlays against one
// frozen Base per problem and compares them with the candidate's clone:
// the problem with the arcs appended and the module binding replaced.
// Base.List must equal List on the clone and the reference list
// scheduler, in schedule and error string. When the clone is cyclic or
// its ASAP length (by the map-based reference) exceeds MaxLen, List must
// reject with exactly that verdict before it reads the module binding: it
// is handed none. A second pass replays every candidate in reverse order
// on the same Base: scratch left over from another solve must not change
// an outcome.
func TestOverlayMatchesClone(t *testing.T) {
	sets, cands := 16, 12
	if testing.Short() {
		sets, cands = 4, 8
	}
	counts := map[string]int{}
	for name, g := range diffGraphs(t) {
		nn := g.NumNodes()
		if nn == 0 {
			continue
		}
		order, err := NewProblem(g).refTopo()
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k <= sets; k++ {
			rng := rand.New(rand.NewSource(int64(k)*104729 + int64(nn)))
			p := NewProblem(g)
			if k > 0 {
				p = randomProblem(g, rng)
			}
			b := p.Freeze()
			type cand struct {
				strict, weak [][2]dfg.NodeID
				mod          []int
				s            Schedule
				err          error
			}
			var cs []cand
			for i := 0; i < cands; i++ {
				kind := (k + i) % overlayKinds
				label := fmt.Sprintf("%s set %d candidate %d (kind %d)", name, k, i, kind)
				strict, weak := candidateArcs(p, order, rng, kind)
				mod := candidateModules(p, rng)
				q := p.Clone()
				q.Extra = append(q.Extra, strict...)
				q.ExtraWeak = append(q.ExtraWeak, weak...)
				copy(q.ModuleOf, mod)

				var spec error
				if _, err := q.refTopo(); err != nil {
					spec = err
				} else if asap, _ := q.refASAP(); q.MaxLen > 0 && asap.Len > q.MaxLen {
					spec = latencyError(q.MaxLen)
				}
				want, wantErr := q.List()
				refS, refErr := q.refList()
				if d := sameSchedule(nn, want, wantErr, refS, refErr); d != "" {
					t.Fatalf("%s: clone List %s", label, d)
				}

				s, err := b.List(strict, weak, mod)
				if d := sameSchedule(nn, s, err, refS, refErr); d != "" {
					t.Fatalf("%s: Base.List %s", label, d)
				}
				if spec != nil {
					if !sameErr(err, spec) {
						t.Fatalf("%s: List = %v, want the reference verdict %v", label, err, spec)
					}
					if _, err := b.List(strict, weak, nil); !sameErr(err, spec) {
						t.Fatalf("%s: List without a binding = %v, want %v", label, err, spec)
					}
				}
				switch {
				case sameErr(spec, errCycle):
					counts["rejected: cycle"]++
				case spec != nil:
					counts["rejected: latency"]++
				case err != nil:
					counts["passed, List failed"]++
				default:
					counts["passed, List solved"]++
				}
				cs = append(cs, cand{strict, weak, mod, s, err})
			}
			for i := len(cs) - 1; i >= 0; i-- {
				c := cs[i]
				s, err := b.List(c.strict, c.weak, c.mod)
				if !sameErr(err, c.err) || !slices.Equal(s.Step, c.s.Step) || s.Len != c.s.Len {
					t.Fatalf("%s set %d candidate %d: replay gave List %v %v; first pass %v %v",
						name, k, i, s, err, c.s, c.err)
				}
			}
		}
	}
	t.Logf("outcomes: %v", counts)
	for _, o := range []string{"rejected: cycle", "rejected: latency", "passed, List failed", "passed, List solved"} {
		if counts[o] == 0 {
			t.Errorf("no candidate ended %q; the sweep must exercise every outcome", o)
		}
	}
}

// TestOverlaySolvesReuseScratch pins the Base's scratch reuse: once its
// buffers have grown, a List that finds a cycle or a latency overrun
// allocates nothing, and a successful List allocates only the schedule it
// returns.
func TestOverlaySolvesReuseScratch(t *testing.T) {
	g := dfg.EWF(4)
	p := NewProblem(g)
	asap, err := p.ASAP()
	if err != nil {
		t.Fatal(err)
	}
	p.MaxLen = asap.Len
	order, err := p.refTopo()
	if err != nil {
		t.Fatal(err)
	}
	b := p.Freeze()
	cases := []struct {
		name   string
		strict [][2]dfg.NodeID
		want   error
	}{
		{"pass", nil, nil},
		{"cycle", [][2]dfg.NodeID{{order[3], order[3]}}, errCycle},
		{"overrun", ChainArcs(order), latencyError(p.MaxLen)},
	}
	for _, c := range cases {
		if _, err := b.List(c.strict, nil, p.ModuleOf); !sameErr(err, c.want) {
			t.Fatalf("%s: List = %v, want %v", c.name, err, c.want)
		}
		want := 0.0
		if c.want == nil {
			want = 1 // the schedule
		}
		if n := testing.AllocsPerRun(20, func() { b.List(c.strict, nil, p.ModuleOf) }); n != want {
			t.Errorf("%s: List allocates %.1f times per call, want %.0f", c.name, n, want)
		}
	}
}
