package gates

import (
	"math/rand"
	"reflect"
	"testing"
)

// renumber returns c with gate id i renamed perm[i], so that ids no longer
// follow the order the gates were built in.
func renumber(c *Circuit, perm []int) *Circuit {
	ids := func(xs []int) []int {
		out := make([]int, len(xs))
		for i, x := range xs {
			out[i] = perm[x]
		}
		return out
	}
	out := &Circuit{
		Gates:       make([]*Gate, len(c.Gates)),
		Inputs:      ids(c.Inputs),
		Outputs:     ids(c.Outputs),
		DFFs:        ids(c.DFFs),
		OutputNames: c.OutputNames,
	}
	for _, g := range c.Gates {
		out.Gates[perm[g.ID]] = &Gate{ID: perm[g.ID], Kind: g.Kind, In: ids(g.In), Name: g.Name}
	}
	return out
}

// TestCompile checks the one layout Compile builds, on seeded sequential
// circuits whose gate ids are not in evaluation order: opcodes and fanin
// by position, every combinational gate after its fanin, inputs and
// flip-flops below Comb, the reader lists as the inverse of the fanin
// lists, Pos against Levelize, and the index maps.
func TestCompile(t *testing.T) {
	// Compile converts kinds to opcodes by value.
	ops := []Op{OpInput, OpConst0, OpConst1, OpBuf, OpNot, OpAnd, OpOr, OpNand, OpNor, OpXor, OpXnor, OpDFF}
	kinds := []Kind{KInput, KConst0, KConst1, KBuf, KNot, KAnd, KOr, KNand, KNor, KXor, KXnor, KDFF}
	for i := range ops {
		if Kind(ops[i]) != kinds[i] {
			t.Errorf("opcode %d does not match kind %v", ops[i], kinds[i])
		}
	}
	for seed := int64(0); seed < 40; seed++ {
		c := randCircuit(seed, 4, 3, 40)
		c = renumber(c, rand.New(rand.NewSource(seed)).Perm(len(c.Gates)))
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		p, err := c.Compile()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checkProgram(t, c, p)
		if t.Failed() {
			t.Fatalf("seed %d", seed)
		}
	}
}

// checkProgram checks p against the circuit it was compiled from.
func checkProgram(t *testing.T, c *Circuit, p *Program) {
	t.Helper()
	n := len(c.Gates)
	if len(p.Op) != n || len(p.Pos) != n {
		t.Fatalf("%d opcodes and %d positions for %d gates", len(p.Op), len(p.Pos), n)
	}
	idAt := make([]int, n)
	for i := range idAt {
		idAt[i] = -1
	}
	for id, q := range p.Pos {
		if idAt[q] >= 0 {
			t.Fatalf("gates %d and %d share position %d", idAt[q], id, q)
		}
		idAt[q] = id
	}
	pos := func(ids []int) []int32 {
		out := []int32{}
		for _, id := range ids {
			out = append(out, p.Pos[id])
		}
		return out
	}
	// Readers, by ascending id: a flip-flop complemented.
	rd := make([][]int32, n)
	for _, g := range c.Gates {
		r := p.Pos[g.ID]
		if g.Kind == KDFF {
			r = ^r
		}
		for _, in := range g.In {
			rd[p.Pos[in]] = append(rd[p.Pos[in]], r)
		}
	}
	for q := int32(0); q < int32(n); q++ {
		g := c.Gates[idAt[q]]
		if Kind(p.Op[q]) != g.Kind {
			t.Errorf("position %d: opcode %d, kind %v", q, p.Op[q], g.Kind)
		}
		if got, want := append([]int32{}, p.Fanin(q)...), pos(g.In); !reflect.DeepEqual(got, want) {
			t.Errorf("position %d: fanin %v, want %v", q, got, want)
		}
		if loaded := g.Kind == KInput || g.Kind == KDFF; loaded != (int(q) < p.Comb) {
			t.Errorf("position %d (%v) on the wrong side of Comb %d", q, g.Kind, p.Comb)
		}
		if int(q) >= p.Comb {
			for _, in := range p.Fanin(q) {
				if in >= q {
					t.Errorf("position %d reads position %d", q, in)
				}
			}
		}
		if got, want := append([]int32{}, p.Readers(q)...), append([]int32{}, rd[q]...); !reflect.DeepEqual(got, want) {
			t.Errorf("position %d: readers %v, want %v", q, got, want)
		}
	}
	// The positions list the Levelize order, inputs and flip-flops first.
	order, err := c.Levelize()
	if err != nil {
		t.Fatal(err)
	}
	var loaded, rest []int
	for _, id := range order {
		if k := c.Gates[id].Kind; k == KInput || k == KDFF {
			loaded = append(loaded, id)
		} else {
			rest = append(rest, id)
		}
	}
	if want := append(loaded, rest...); !reflect.DeepEqual(idAt, want) {
		t.Errorf("positions hold %v, want the partitioned Levelize order %v", idAt, want)
	}
	if !reflect.DeepEqual(p.PIs, pos(c.Inputs)) || !reflect.DeepEqual(p.DFFs, pos(c.DFFs)) || !reflect.DeepEqual(p.POs, pos(c.Outputs)) {
		t.Errorf("PIs %v, DFFs %v, POs %v disagree with the circuit", p.PIs, p.DFFs, p.POs)
	}
	pix := make([]int32, n)
	for q := range pix {
		pix[q] = -1
	}
	for k, q := range p.PIs {
		pix[q] = int32(k)
	}
	if !reflect.DeepEqual(p.PIIx, pix) {
		t.Errorf("PIIx %v, want %v", p.PIIx, pix)
	}
}

// TestCompileObsDist checks the observability distances on a small
// sequential circuit.
func TestCompileObsDist(t *testing.T) {
	b := NewBuilder()
	x := b.Input("x")
	y := b.Input("y")
	q := b.DFF("q")
	a := b.And(x, q)
	o := b.Xnor(a, y)
	n := b.Not(o)
	b.SetD(q, n)
	dead := b.Or(x, y) // unobservable
	b.Output("o", o)
	c, err := b.Done()
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	checkProgram(t, c, p)
	// o is the output; a and y feed it; q feeds a; n feeds q's D pin.
	wantDist := map[int]int32{o: 0, a: 1, y: 1, q: 2, x: 2, n: 3, dead: 1 << 29}
	for id, d := range wantDist {
		if got := p.ObsDist[p.Pos[id]]; got != d {
			t.Errorf("gate %d: ObsDist %d, want %d", id, got, d)
		}
	}
}

func TestCompileRejectsUnwiredDFF(t *testing.T) {
	b := NewBuilder()
	b.Output("q", b.DFF("q"))
	if _, err := b.Circuit().Compile(); err == nil {
		t.Fatal("compiled a flip-flop with no D input")
	}
}
