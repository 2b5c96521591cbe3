package dfg

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestOpKindString(t *testing.T) {
	if OpAdd.String() != "+" || OpMul.String() != "*" || OpLt.String() != "<" {
		t.Fatalf("unexpected op names: %s %s %s", OpAdd, OpMul, OpLt)
	}
	if got := OpKind(99).String(); !strings.Contains(got, "99") {
		t.Fatalf("unknown kind should render numerically, got %s", got)
	}
}

func TestOpKindArity(t *testing.T) {
	for _, k := range []OpKind{OpAdd, OpSub, OpMul, OpLt, OpGt, OpEq, OpAnd, OpOr, OpXor, OpShl, OpShr} {
		if k.Arity() != 2 {
			t.Errorf("%s arity = %d, want 2", k, k.Arity())
		}
	}
	for _, k := range []OpKind{OpNot, OpMov} {
		if k.Arity() != 1 {
			t.Errorf("%s arity = %d, want 1", k, k.Arity())
		}
	}
}

func TestAllBenchmarksValidate(t *testing.T) {
	for _, name := range BenchmarkNames() {
		g, err := ByName(name, 8)
		if err != nil {
			t.Fatalf("ByName(%s): %v", name, err)
		}
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if g.NumNodes() == 0 {
			t.Errorf("%s: empty graph", name)
		}
		if len(g.Outputs()) == 0 {
			t.Errorf("%s: no primary outputs", name)
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("nosuch", 8); err == nil {
		t.Fatal("expected error for unknown benchmark")
	}
}

func TestBenchmarkOpCounts(t *testing.T) {
	// Structural facts stated in the paper (see DESIGN.md §3).
	cases := []struct {
		name   string
		counts map[OpKind]int
	}{
		{BenchEx, map[OpKind]int{OpMul: 4, OpSub: 3, OpAdd: 1}},
		{BenchDct, map[OpKind]int{OpMul: 5, OpAdd: 6, OpSub: 2}},
		{BenchDiffeq, map[OpKind]int{OpMul: 6, OpAdd: 2, OpSub: 2, OpLt: 1}},
		{BenchPaulin, map[OpKind]int{OpMul: 6, OpAdd: 3, OpSub: 1, OpLt: 1}},
		{BenchEWF, map[OpKind]int{OpAdd: 26, OpMul: 8}},
	}
	for _, c := range cases {
		g, _ := ByName(c.name, 8)
		got := map[OpKind]int{}
		for _, n := range g.Nodes() {
			got[n.Kind]++
		}
		for k, want := range c.counts {
			if got[k] != want {
				t.Errorf("%s: %d %s ops, want %d", c.name, got[k], k, want)
			}
		}
		total := 0
		for _, v := range c.counts {
			total += v
		}
		if g.NumNodes() != total {
			t.Errorf("%s: %d ops total, want %d", c.name, g.NumNodes(), total)
		}
	}
}

func TestExNodeLabels(t *testing.T) {
	g := Ex(8)
	wantKind := map[string]OpKind{
		"N21": OpMul, "N22": OpMul, "N24": OpMul, "N28": OpMul,
		"N25": OpSub, "N27": OpSub, "N29": OpSub, "N30": OpAdd,
	}
	for label, k := range wantKind {
		id, ok := g.NodeByName(label)
		if !ok {
			t.Fatalf("Ex: missing node %s", label)
		}
		if g.Node(id).Kind != k {
			t.Errorf("Ex: node %s kind = %s, want %s", label, g.Node(id).Kind, k)
		}
	}
}

func TestDiffeqInterpret(t *testing.T) {
	g := Diffeq(16)
	in := map[string]uint64{"x": 2, "y": 5, "u": 100, "dx": 1, "a": 10}
	out, err := g.Interpret(16, in)
	if err != nil {
		t.Fatal(err)
	}
	// x1 = x + dx
	if out["x1"] != 3 {
		t.Errorf("x1 = %d, want 3", out["x1"])
	}
	// y1 = y + u*dx
	if out["y1"] != 105 {
		t.Errorf("y1 = %d, want 105", out["y1"])
	}
	// u1 = u - 3*x*u*dx - 3*y*dx = 100 - 600 - 15 (mod 2^16)
	var base uint64 = 100
	want := (base - 600 - 15) & Mask(16)
	if out["u1"] != want {
		t.Errorf("u1 = %d, want %d", out["u1"], want)
	}
	if out["exit"] != 1 { // 3 < 10
		t.Errorf("exit = %d, want 1", out["exit"])
	}
}

func TestInterpretMissingInput(t *testing.T) {
	g := Ex(8)
	if _, err := g.Interpret(8, map[string]uint64{"a": 1}); err == nil {
		t.Fatal("expected missing-input error")
	}
}

func TestEvalOps(t *testing.T) {
	cases := []struct {
		k       OpKind
		w       int
		a, b, r uint64
	}{
		{OpAdd, 8, 200, 100, 44}, // wraps mod 256
		{OpSub, 8, 5, 10, 251},
		{OpMul, 8, 16, 16, 0},
		{OpMul, 16, 16, 16, 256},
		{OpLt, 8, 3, 4, 1},
		{OpLt, 8, 4, 3, 0},
		{OpGt, 8, 4, 3, 1},
		{OpEq, 8, 7, 7, 1},
		{OpAnd, 8, 0xF0, 0x3C, 0x30},
		{OpOr, 8, 0xF0, 0x0C, 0xFC},
		{OpXor, 8, 0xFF, 0x0F, 0xF0},
		{OpShl, 8, 1, 3, 8},
		{OpShr, 8, 0x80, 3, 0x10},
	}
	for _, c := range cases {
		if got := Eval(c.k, c.w, c.a, c.b); got != c.r {
			t.Errorf("Eval(%s,%d,%d,%d) = %d, want %d", c.k, c.w, c.a, c.b, got, c.r)
		}
	}
	if got := Eval(OpNot, 8, 0x0F); got != 0xF0 {
		t.Errorf("Eval(~,8,0x0F) = %#x, want 0xF0", got)
	}
	if got := Eval(OpMov, 8, 42); got != 42 {
		t.Errorf("Eval(mov,8,42) = %d", got)
	}
}

func TestMask(t *testing.T) {
	if Mask(0) != 0 || Mask(1) != 1 || Mask(8) != 0xFF || Mask(64) != ^uint64(0) || Mask(70) != ^uint64(0) {
		t.Fatal("Mask boundary values wrong")
	}
}

func TestTopoOrderRespectsDeps(t *testing.T) {
	for _, name := range BenchmarkNames() {
		g, _ := ByName(name, 8)
		order, err := g.TopoOrder()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		pos := map[NodeID]int{}
		for i, n := range order {
			pos[n] = i
		}
		for _, n := range g.Nodes() {
			for _, p := range g.Preds(n.ID) {
				if pos[p] >= pos[n.ID] {
					t.Errorf("%s: pred %s not before %s", name, g.Node(p).Name, n.Name)
				}
			}
		}
	}
}

func TestPredsSuccsConsistent(t *testing.T) {
	g := Dct(8)
	for _, n := range g.Nodes() {
		for _, p := range g.Preds(n.ID) {
			found := false
			for _, s := range g.Succs(p) {
				if s == n.ID {
					found = true
				}
			}
			if !found {
				t.Errorf("pred/succ asymmetry between %s and %s", g.Node(p).Name, n.Name)
			}
		}
	}
}

func TestDuplicateValueNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate value name")
		}
	}()
	g := New("dup", 8)
	g.Input("a")
	g.Input("a")
}

func TestOpArityMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on arity mismatch")
		}
	}()
	g := New("bad", 8)
	a := g.Input("a")
	g.Op(OpAdd, "t", a) // add wants 2 operands
}

func TestDotAndStringSmoke(t *testing.T) {
	g := Diffeq(8)
	d := g.Dot()
	for _, want := range []string{"digraph", "N26", "->"} {
		if !strings.Contains(d, want) {
			t.Errorf("Dot output missing %q", want)
		}
	}
	s := g.String()
	if !strings.Contains(s, "N34") || !strings.Contains(s, "u1") {
		t.Errorf("String output incomplete: %s", s)
	}
}

// randomGraph builds a random acyclic DFG with the given seed, for
// property-based tests here and reused (by construction pattern) in the
// scheduling and synthesis packages.
func randomGraph(seed int64, nOps int) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New("rand", 8)
	pool := []ValueID{g.Input("i0"), g.Input("i1"), g.Input("i2")}
	kinds := []OpKind{OpAdd, OpSub, OpMul, OpAnd, OpOr, OpXor}
	for i := 0; i < nOps; i++ {
		k := kinds[rng.Intn(len(kinds))]
		a := pool[rng.Intn(len(pool))]
		b := pool[rng.Intn(len(pool))]
		pool = append(pool, g.Op(k, "", a, b))
	}
	// Mark all sinks as outputs so nothing is dead.
	for _, v := range g.Values() {
		if v.Kind == ValTemp && len(v.Uses) == 0 {
			g.MarkOutput(v.ID)
		}
	}
	return g
}

func TestRandomGraphsValidate(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		g := randomGraph(seed, int(n%30)+1)
		return g.Validate() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestInterpretDeterministic(t *testing.T) {
	prop := func(seed int64, a, b, c uint16) bool {
		g := randomGraph(seed, 12)
		in := map[string]uint64{"i0": uint64(a), "i1": uint64(b), "i2": uint64(c)}
		o1, err1 := g.Interpret(8, in)
		o2, err2 := g.Interpret(8, in)
		if err1 != nil || err2 != nil {
			return false
		}
		if len(o1) != len(o2) {
			return false
		}
		for k, v := range o1 {
			if o2[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestInterpretResultsWithinWidth(t *testing.T) {
	prop := func(seed int64, a, b, c uint16, w uint8) bool {
		width := int(w%16) + 1
		g := randomGraph(seed, 10)
		in := map[string]uint64{"i0": uint64(a), "i1": uint64(b), "i2": uint64(c)}
		out, err := g.Interpret(width, in)
		if err != nil {
			return false
		}
		for _, v := range out {
			if v&^Mask(width) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
