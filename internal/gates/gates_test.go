package gates

import (
	"testing"
	"testing/quick"

	"repro/internal/dfg"
)

// evalComb evaluates a purely combinational circuit on scalar inputs using
// a simple recursive evaluator (independent of logicsim, so the two
// implementations cross-check).
func evalComb(c *Circuit, in map[int]bool) map[int]bool {
	vals := map[int]bool{}
	var ev func(int) bool
	ev = func(id int) bool {
		if v, ok := vals[id]; ok {
			return v
		}
		g := c.Gates[id]
		var v bool
		switch g.Kind {
		case KInput:
			v = in[id]
		case KConst0:
			v = false
		case KConst1:
			v = true
		case KBuf:
			v = ev(g.In[0])
		case KNot:
			v = !ev(g.In[0])
		case KAnd, KNand:
			v = true
			for _, x := range g.In {
				v = v && ev(x)
			}
			if g.Kind == KNand {
				v = !v
			}
		case KOr, KNor:
			v = false
			for _, x := range g.In {
				v = v || ev(x)
			}
			if g.Kind == KNor {
				v = !v
			}
		case KXor:
			v = ev(g.In[0]) != ev(g.In[1])
		case KXnor:
			v = ev(g.In[0]) == ev(g.In[1])
		case KDFF:
			v = false // combinational tests have no DFFs
		}
		vals[id] = v
		return v
	}
	for _, o := range c.Outputs {
		ev(o)
	}
	return vals
}

func wordVal(c *Circuit, vals map[int]bool, w Word) uint64 {
	var out uint64
	for i, g := range w {
		if vals[g] {
			out |= 1 << uint(i)
		}
	}
	return out
}

func driveWord(in map[int]bool, w Word, v uint64) {
	for i, g := range w {
		in[g] = v&(1<<uint(i)) != 0
	}
}

// buildBinop builds a circuit computing the op and returns an evaluator.
func buildBinop(t *testing.T, kind dfg.OpKind, width int) func(a, b uint64) uint64 {
	t.Helper()
	bld := NewBuilder()
	x := bld.InputWord("x", width)
	y := bld.InputWord("y", width)
	res, err := bld.Op(kind, x, y)
	if err != nil {
		t.Fatal(err)
	}
	bld.OutputWord("r", res)
	c, err := bld.Done()
	if err != nil {
		t.Fatal(err)
	}
	return func(a, b uint64) uint64 {
		in := map[int]bool{}
		driveWord(in, x, a)
		driveWord(in, y, b)
		vals := evalComb(c, in)
		return wordVal(c, vals, res)
	}
}

func TestArithmeticExhaustive4Bit(t *testing.T) {
	for _, kind := range []dfg.OpKind{dfg.OpAdd, dfg.OpSub, dfg.OpMul, dfg.OpLt, dfg.OpGt, dfg.OpEq, dfg.OpAnd, dfg.OpOr, dfg.OpXor} {
		ev := buildBinop(t, kind, 4)
		for a := uint64(0); a < 16; a++ {
			for b := uint64(0); b < 16; b++ {
				want := dfg.Eval(kind, 4, a, b)
				if got := ev(a, b); got != want {
					t.Fatalf("%s: %d,%d = %d, want %d", kind, a, b, got, want)
				}
			}
		}
	}
}

func TestArithmeticRandom16Bit(t *testing.T) {
	for _, kind := range []dfg.OpKind{dfg.OpAdd, dfg.OpSub, dfg.OpMul, dfg.OpLt, dfg.OpEq} {
		ev := buildBinop(t, kind, 16)
		prop := func(a, b uint16) bool {
			return ev(uint64(a), uint64(b)) == dfg.Eval(kind, 16, uint64(a), uint64(b))
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
			t.Errorf("%s: %v", kind, err)
		}
	}
}

func TestUnaryOps(t *testing.T) {
	bld := NewBuilder()
	x := bld.InputWord("x", 8)
	n, err := bld.OpUnary(dfg.OpNot, x)
	if err != nil {
		t.Fatal(err)
	}
	m, err := bld.OpUnary(dfg.OpMov, x)
	if err != nil {
		t.Fatal(err)
	}
	bld.OutputWord("n", n)
	bld.OutputWord("m", m)
	c, err := bld.Done()
	if err != nil {
		t.Fatal(err)
	}
	in := map[int]bool{}
	driveWord(in, x, 0xA5)
	vals := evalComb(c, in)
	if got := wordVal(c, vals, n); got != 0x5A {
		t.Errorf("not = %#x, want 0x5A", got)
	}
	if got := wordVal(c, vals, m); got != 0xA5 {
		t.Errorf("mov = %#x", got)
	}
}

func TestUnsupportedOps(t *testing.T) {
	bld := NewBuilder()
	x := bld.InputWord("x", 4)
	y := bld.InputWord("y", 4)
	if _, err := bld.Op(dfg.OpShl, x, y); err == nil {
		t.Error("expected error for variable shift")
	}
	if _, err := bld.OpUnary(dfg.OpAdd, x); err == nil {
		t.Error("expected error for binary op via OpUnary")
	}
}

func TestMuxOneHot(t *testing.T) {
	bld := NewBuilder()
	s0 := bld.Input("s0")
	s1 := bld.Input("s1")
	a := bld.InputWord("a", 4)
	b := bld.InputWord("b", 4)
	out := bld.MuxOneHot([]int{s0, s1}, []Word{a, b})
	bld.OutputWord("o", out)
	c, err := bld.Done()
	if err != nil {
		t.Fatal(err)
	}
	in := map[int]bool{}
	driveWord(in, a, 0x9)
	driveWord(in, b, 0x6)
	in[s0], in[s1] = true, false
	if got := wordVal(c, evalComb(c, in), out); got != 0x9 {
		t.Errorf("sel a: got %#x", got)
	}
	in[s0], in[s1] = false, true
	if got := wordVal(c, evalComb(c, in), out); got != 0x6 {
		t.Errorf("sel b: got %#x", got)
	}
}

func TestMuxOneHotSingleChoicePassthrough(t *testing.T) {
	bld := NewBuilder()
	s := bld.Input("s")
	a := bld.InputWord("a", 2)
	out := bld.MuxOneHot([]int{s}, []Word{a})
	for i := range out {
		if out[i] != a[i] {
			t.Error("single-choice mux must be a passthrough")
		}
	}
}

func TestValidateCatchesBadFanin(t *testing.T) {
	bld := NewBuilder()
	x := bld.Input("x")
	bld.c.Gates = append(bld.c.Gates, &Gate{ID: len(bld.c.Gates), Kind: KAnd, In: []int{x}})
	if _, err := bld.Done(); err == nil {
		t.Fatal("expected fanin error")
	}
}

func TestLevelizeDetectsCombCycle(t *testing.T) {
	bld := NewBuilder()
	x := bld.Input("x")
	// g = AND(x, g) — a combinational cycle.
	g := &Gate{ID: len(bld.c.Gates), Kind: KAnd}
	g.In = []int{x, g.ID}
	bld.c.Gates = append(bld.c.Gates, g)
	if _, err := bld.c.Levelize(); err == nil {
		t.Fatal("expected cycle error")
	}
}

func TestDFFWiring(t *testing.T) {
	bld := NewBuilder()
	d := bld.Input("d")
	ff := bld.DFF("q")
	bld.SetD(ff, d)
	bld.Output("q", ff)
	c, err := bld.Done()
	if err != nil {
		t.Fatal(err)
	}
	if len(c.DFFs) != 1 {
		t.Fatalf("DFF count = %d", len(c.DFFs))
	}
	if c.Stats() == "" {
		t.Error("empty stats")
	}
}

func TestSetDOnNonDFFPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	bld := NewBuilder()
	x := bld.Input("x")
	bld.SetD(x, x)
}

func TestMultiplierGateCountQuadratic(t *testing.T) {
	count := func(w int) int {
		bld := NewBuilder()
		x := bld.InputWord("x", w)
		y := bld.InputWord("y", w)
		bld.Multiplier(x, y)
		return bld.Circuit().NumGates()
	}
	c4, c16 := count(4), count(16)
	if ratio := float64(c16) / float64(c4); ratio < 8 {
		t.Errorf("16-bit multiplier only %.1fx the 4-bit one; expected quadratic growth", ratio)
	}
}

func TestZeroExtend(t *testing.T) {
	bld := NewBuilder()
	x := bld.InputWord("x", 2)
	w := bld.ZeroExtend(x, 5)
	if len(w) != 5 {
		t.Fatalf("width %d", len(w))
	}
	if w2 := bld.ZeroExtend(w, 3); len(w2) != 3 {
		t.Fatalf("truncation width %d", len(w2))
	}
}

// LFSRSeedWords packs per-lane seeds transposed: bit l of word i must be
// bit i of lane l's SplitMix64-derived seed, lane 0 must stay at the
// hardware reset state, and seeds must respect the register width.
func TestLFSRSeedWords(t *testing.T) {
	const w, lanes = 4, 64
	words := LFSRSeedWords(w, lanes, 1998)
	if len(words) != w {
		t.Fatalf("%d words for a %d-bit register", len(words), w)
	}
	laneSeed := func(l int) uint64 {
		var s uint64
		for i := 0; i < w; i++ {
			if words[i]&(1<<uint(l)) != 0 {
				s |= 1 << uint(i)
			}
		}
		return s
	}
	if laneSeed(0) != 0 {
		t.Errorf("lane 0 seed %#x, want the all-zero reset state", laneSeed(0))
	}
	for l := 1; l < lanes; l++ {
		want := SplitMix64(1998+uint64(l)) & (1<<w - 1)
		if laneSeed(l) != want {
			t.Errorf("lane %d seed %#x, want %#x", l, laneSeed(l), want)
		}
	}
	// Distinct base seeds give distinct lane seeds (mixing sanity).
	other := LFSRSeedWords(w, lanes, 1999)
	same := true
	for i := range words {
		if words[i] != other[i] {
			same = false
		}
	}
	if same {
		t.Error("different base seeds produced identical seed words")
	}
	// Degenerate widths and lane counts must not panic.
	if got := LFSRSeedWords(0, 64, 1); len(got) != 0 {
		t.Errorf("width 0: %v", got)
	}
	for _, word := range LFSRSeedWords(3, 1, 7) {
		if word != 0 {
			t.Error("single-lane seeding must keep the reset state")
		}
	}
}
