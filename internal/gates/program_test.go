package gates

import (
	"reflect"
	"testing"
)

// TestCompile checks the compiled arrays against the circuit they come
// from: opcodes, fanin and fanout CSR, the Levelize order and its
// inverse, index maps and observability distances.
func TestCompile(t *testing.T) {
	// Compile converts kinds to opcodes by value.
	ops := []Op{OpInput, OpConst0, OpConst1, OpBuf, OpNot, OpAnd, OpOr, OpNand, OpNor, OpXor, OpXnor, OpDFF}
	kinds := []Kind{KInput, KConst0, KConst1, KBuf, KNot, KAnd, KOr, KNand, KNor, KXor, KXnor, KDFF}
	for i := range ops {
		if Kind(ops[i]) != kinds[i] {
			t.Errorf("opcode %d does not match kind %v", ops[i], kinds[i])
		}
	}
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
	for _, g := range c.Gates {
		if Kind(p.Op[g.ID]) != g.Kind {
			t.Errorf("gate %d: opcode %d, kind %v", g.ID, p.Op[g.ID], g.Kind)
		}
		in := []int32{}
		for _, i := range g.In {
			in = append(in, int32(i))
		}
		if got := append([]int32{}, p.Fanin(int32(g.ID))...); !reflect.DeepEqual(got, in) {
			t.Errorf("gate %d: fanin %v, want %v", g.ID, got, in)
		}
	}
	if got, want := p.Fanout(int32(x)), []int32{int32(a), int32(dead)}; !reflect.DeepEqual(got, want) {
		t.Errorf("fanout of x = %v, want %v", got, want)
	}
	order, _ := c.Levelize()
	for i, id := range order {
		if p.Order[i] != int32(id) || p.Pos[id] != int32(i) {
			t.Fatalf("Order/Pos disagree with Levelize at %d", i)
		}
	}
	// ByPos is the same program renumbered by position, flip-flop readers
	// complemented.
	l := p.ByPos
	for qp, id := range p.Order {
		if l.Op[qp] != p.Op[id] {
			t.Errorf("position %d: opcode %d, want %d", qp, l.Op[qp], p.Op[id])
		}
		var in, rd []int32
		for _, x := range p.Fanin(id) {
			in = append(in, p.Pos[x])
		}
		for _, r := range p.Fanout(id) {
			if p.Op[r] == OpDFF {
				rd = append(rd, ^p.Pos[r])
			} else {
				rd = append(rd, p.Pos[r])
			}
		}
		if got := l.In[l.InOff[qp]:l.InOff[qp+1]]; len(got) != len(in) || len(in) > 0 && !reflect.DeepEqual(got, in) {
			t.Errorf("position %d: fanin %v, want %v", qp, got, in)
		}
		if got := l.Rd[l.RdOff[qp]:l.RdOff[qp+1]]; len(got) != len(rd) || len(rd) > 0 && !reflect.DeepEqual(got, rd) {
			t.Errorf("position %d: readers %v, want %v", qp, got, rd)
		}
	}
	if p.PIIx[x] != 0 || p.PIIx[y] != 1 || p.PIIx[q] != -1 {
		t.Errorf("PIIx = %v", p.PIIx)
	}
	// o is the output; a and y feed it; q feeds a; n feeds q's D pin.
	wantDist := map[int]int32{o: 0, a: 1, y: 1, q: 2, x: 2, n: 3, dead: 1 << 29}
	for id, d := range wantDist {
		if p.ObsDist[id] != d {
			t.Errorf("gate %d: ObsDist %d, want %d", id, p.ObsDist[id], d)
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
