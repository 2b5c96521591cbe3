package dfg

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// This file encodes the high-level synthesis benchmark suite the paper
// evaluates on: Ex, Dct, Diffeq, EWF, Paulin and Tseng. The Diffeq/Paulin
// (HAL) and EWF graphs follow the well-known published structures. The Ex
// and Dct graphs come from Lee et al. [6,7] and are not reprinted in the
// paper; they are reconstructed here to match every structural fact the
// paper states: the operation node labels and their types (e.g. Ex: N21,
// N22, N24, N28 multiply; N25, N27, N29 subtract; N30 add), the variable
// name sets, and the mergeability groups of Tables 1-3. See DESIGN.md §3.

// Benchmark names accepted by ByName.
const (
	BenchEx     = "ex"
	BenchDct    = "dct"
	BenchDiffeq = "diffeq"
	BenchEWF    = "ewf"
	BenchPaulin = "paulin"
	BenchTseng  = "tseng"
)

// Typed input errors. Every front-end entry point (ByName, hdl.Compile,
// the synthesis flows of internal/core) rejects nonsensical inputs with
// one of these — matchable with errors.Is — instead of failing deep
// inside synthesis or silently computing at a meaningless width.
var (
	// ErrBadWidth rejects data-path bit widths outside [1, 64]: the gate
	// level packs one value bit per uint64 lane word, so 64 is the
	// widest data path the simulators can represent.
	ErrBadWidth = errors.New("dfg: data-path width must be in [1, 64]")
	// ErrUnknownBenchmark rejects a benchmark name ByName does not know.
	ErrUnknownBenchmark = errors.New("dfg: unknown benchmark")
)

// CheckWidth validates a data-path bit width, returning a wrapped
// ErrBadWidth outside [1, 64].
func CheckWidth(width int) error {
	if width < 1 || width > 64 {
		return fmt.Errorf("%w (got %d)", ErrBadWidth, width)
	}
	return nil
}

// resolvers maps benchmark-name namespaces ("<ns>:<rest>") to registered
// constructors; see RegisterResolver.
var (
	resolverMu sync.RWMutex
	resolvers  = map[string]func(name string, width int) (*Graph, error){}
)

// RegisterResolver installs a constructor for benchmark names of the form
// "<ns>:<rest>". ByName dispatches any name containing a ':' to the
// resolver registered for its namespace, so packages layered above dfg
// (e.g. the seeded graph generator in internal/dfggen, which registers
// "gen") can make whole families of behaviours addressable wherever a
// benchmark name is accepted — the facade, the daemon's `bench` field,
// the experiment tables — without new entry points. Registration happens
// in package init; registering a namespace twice panics.
func RegisterResolver(ns string, fn func(name string, width int) (*Graph, error)) {
	resolverMu.Lock()
	defer resolverMu.Unlock()
	if _, dup := resolvers[ns]; dup {
		panic(fmt.Sprintf("dfg: benchmark namespace %q registered twice", ns))
	}
	resolvers[ns] = fn
}

// ByName constructs the named benchmark at the given bit width.
func ByName(name string, width int) (*Graph, error) {
	if err := CheckWidth(width); err != nil {
		return nil, err
	}
	if i := strings.IndexByte(name, ':'); i > 0 {
		resolverMu.RLock()
		fn := resolvers[name[:i]]
		resolverMu.RUnlock()
		if fn != nil {
			return fn(name, width)
		}
		return nil, fmt.Errorf("%w %q", ErrUnknownBenchmark, name)
	}
	switch name {
	case BenchEx:
		return Ex(width), nil
	case BenchDct:
		return Dct(width), nil
	case BenchDiffeq:
		return Diffeq(width), nil
	case BenchEWF:
		return EWF(width), nil
	case BenchPaulin:
		return Paulin(width), nil
	case BenchTseng:
		return Tseng(width), nil
	default:
		return nil, fmt.Errorf("%w %q", ErrUnknownBenchmark, name)
	}
}

// BenchmarkNames returns the names of all built-in benchmarks, sorted.
func BenchmarkNames() []string {
	names := []string{BenchEx, BenchDct, BenchDiffeq, BenchEWF, BenchPaulin, BenchTseng}
	sort.Strings(names)
	return names
}

// Ex is the area-optimized example of Lee et al. used in Table 1 and
// Figure 2: four multiplications (N21, N22, N24, N28), three subtractions
// (N25, N27, N29) and one addition (N30) over the variables a-f and u-z.
func Ex(width int) *Graph {
	g := New(BenchEx, width)
	a := g.Input("a")
	b := g.Input("b")
	c := g.Input("c")
	d := g.Input("d")
	e := g.OpNamed("N21", OpMul, "e", a, b)
	f := g.OpNamed("N22", OpMul, "f", c, d)
	u := g.OpNamed("N24", OpMul, "u", a, d)
	v := g.OpNamed("N25", OpSub, "v", e, f)
	w := g.OpNamed("N27", OpSub, "w", u, v)
	x := g.OpNamed("N28", OpMul, "x", f, v)
	y := g.OpNamed("N29", OpSub, "y", w, x)
	z := g.OpNamed("N30", OpAdd, "z", w, x)
	g.MarkOutput(y)
	g.MarkOutput(z)
	return g
}

// Dct is the portion of an 8-point DCT signal-flow graph used in Table 2
// and Figure 3(a): five multiplications (N31, N33, N35, N38, N40), six
// additions (N27, N29, N37, N42, N43, N44) and two subtractions (N28, N30)
// over the variables a-j, p1-p4 and q2-q4.
func Dct(width int) *Graph {
	g := New(BenchDct, width)
	a := g.Input("a")
	b := g.Input("b")
	c := g.Input("c")
	d := g.Input("d")
	c1 := g.Const("c1", 0x5B) // cos coefficients, truncated to integers
	c2 := g.Const("c2", 0x55)
	c3 := g.Const("c3", 0x31)
	c4 := g.Const("c4", 0x19)
	c5 := g.Const("c5", 0x47)

	e := g.OpNamed("N27", OpAdd, "e", a, b)
	f := g.OpNamed("N28", OpSub, "f", a, b)
	gg := g.OpNamed("N29", OpAdd, "g", c, d)
	h := g.OpNamed("N30", OpSub, "h", c, d)
	i := g.OpNamed("N31", OpMul, "i", f, c1)
	j := g.OpNamed("N33", OpMul, "j", h, c2)
	p1 := g.OpNamed("N35", OpMul, "p1", f, c3)
	p2 := g.OpNamed("N37", OpAdd, "p2", e, gg)
	p3 := g.OpNamed("N38", OpMul, "p3", h, c4)
	p4 := g.OpNamed("N40", OpMul, "p4", e, c5)
	q2 := g.OpNamed("N42", OpAdd, "q2", i, j)
	q3 := g.OpNamed("N43", OpAdd, "q3", p1, p3)
	q4 := g.OpNamed("N44", OpAdd, "q4", p2, p4)
	g.MarkOutput(q2)
	g.MarkOutput(q3)
	g.MarkOutput(q4)
	return g
}

// Diffeq is the HAL differential-equation benchmark [12] used in Table 3
// and Figure 3(b): one Euler step of y” + 3xy' + 3y = 0. Six
// multiplications (N26, N27, N29, N31, N33, N35), two additions (N25, N36),
// two subtractions (N30, N34) and one comparison (N24). The value names
// a1-g match the register-allocation rows of Table 3.
func Diffeq(width int) *Graph {
	g := New(BenchDiffeq, width)
	x := g.Input("x")
	y := g.Input("y")
	u := g.Input("u")
	dx := g.Input("dx")
	a := g.Input("a") // loop bound x_max
	three := g.Const("k3", 3)

	x1 := g.OpNamed("N25", OpAdd, "x1", x, dx)
	exit := g.OpNamed("N24", OpLt, "exit", x1, a)
	g.Loop = "exit"
	a1 := g.OpNamed("N26", OpMul, "a1", three, x)
	b := g.OpNamed("N27", OpMul, "b", u, dx)
	d := g.OpNamed("N29", OpMul, "d", three, y)
	e := g.OpNamed("N31", OpMul, "e", a1, b)
	f := g.OpNamed("N33", OpMul, "f", d, dx)
	gg := g.OpNamed("N30", OpSub, "g", u, e)
	u1 := g.OpNamed("N34", OpSub, "u1", gg, f)
	c := g.OpNamed("N35", OpMul, "c", u, dx)
	y1 := g.OpNamed("N36", OpAdd, "y1", y, c)
	g.MarkOutput(x1)
	g.MarkOutput(y1)
	g.MarkOutput(u1)
	g.MarkOutput(exit)
	return g
}

// Paulin is the HAL benchmark as presented by Paulin, Knight and Girczyc
// [12]: the same differential-equation step as Diffeq with the update of
// u1 associated the other way, u1 = u - (3*x*u*dx + 3*y*dx), which turns
// one subtraction into an addition and changes the dependence structure
// seen by the scheduler.
func Paulin(width int) *Graph {
	g := New(BenchPaulin, width)
	x := g.Input("x")
	y := g.Input("y")
	u := g.Input("u")
	dx := g.Input("dx")
	a := g.Input("a")
	three := g.Const("k3", 3)

	t1 := g.OpNamed("N1", OpMul, "t1", three, x)
	t2 := g.OpNamed("N2", OpMul, "t2", u, dx)
	t3 := g.OpNamed("N3", OpMul, "t3", three, y)
	t4 := g.OpNamed("N4", OpMul, "t4", t1, t2)
	t5 := g.OpNamed("N5", OpMul, "t5", t3, dx)
	t6 := g.OpNamed("N6", OpAdd, "t6", t4, t5)
	u1 := g.OpNamed("N7", OpSub, "u1", u, t6)
	t7 := g.OpNamed("N8", OpMul, "t7", u, dx)
	y1 := g.OpNamed("N9", OpAdd, "y1", y, t7)
	x1 := g.OpNamed("N10", OpAdd, "x1", x, dx)
	exit := g.OpNamed("N11", OpLt, "exit", x1, a)
	g.Loop = "exit"
	g.MarkOutput(x1)
	g.MarkOutput(y1)
	g.MarkOutput(u1)
	g.MarkOutput(exit)
	return g
}

// EWF is the fifth-order elliptic wave filter benchmark [6,7]: 34
// operations (26 additions, 8 multiplications by filter coefficients) over
// the input sample and seven state variables. The structure follows the
// widely used published graph: two cascaded second-order sections feeding a
// final summation chain, with a critical path of 14 additions.
func EWF(width int) *Graph {
	g := New(BenchEWF, width)
	in := g.Input("inp")
	sv2 := g.Input("sv2")
	sv13 := g.Input("sv13")
	sv18 := g.Input("sv18")
	sv26 := g.Input("sv26")
	sv33 := g.Input("sv33")
	sv38 := g.Input("sv38")
	sv39 := g.Input("sv39")
	// Filter coefficients, truncated to integers for the integer data path.
	k1 := g.Const("k1", 3)
	k2 := g.Const("k2", 5)
	k3 := g.Const("k3", 7)
	k4 := g.Const("k4", 11)
	k5 := g.Const("k5", 13)
	k6 := g.Const("k6", 17)
	k7 := g.Const("k7", 19)
	k8 := g.Const("k8", 23)

	add := func(name string, p, q ValueID) ValueID { return g.Op(OpAdd, name, p, q) }
	mul := func(name string, p, q ValueID) ValueID { return g.Op(OpMul, name, p, q) }

	// First section.
	t1 := add("t1", in, sv2)
	t2 := add("t2", t1, sv13)
	t3 := add("t3", t2, sv18) // joins feedback of first biquad
	m1 := mul("m1", t3, k1)
	t4 := add("t4", m1, sv2)
	m2 := mul("m2", t4, k2)
	t5 := add("t5", m2, t1)
	t6 := add("t6", t5, sv13)
	m3 := mul("m3", t6, k3)
	t7 := add("t7", m3, t4)
	t8 := add("t8", t7, sv18)
	nsv2 := add("nsv2", t5, t7)   // state update 1
	nsv13 := add("nsv13", t6, t8) // state update 2

	// Second section.
	t9 := add("t9", t8, sv26)
	m4 := mul("m4", t9, k4)
	t10 := add("t10", m4, sv33)
	m5 := mul("m5", t10, k5)
	t11 := add("t11", m5, t9)
	t12 := add("t12", t11, sv26)
	m6 := mul("m6", t12, k6)
	t13 := add("t13", m6, t10)
	t14 := add("t14", t13, sv33)
	nsv18 := add("nsv18", t11, t13)
	nsv26 := add("nsv26", t12, t14)

	// Output section with the remaining states.
	t15 := add("t15", t14, sv38)
	m7 := mul("m7", t15, k7)
	t16 := add("t16", m7, sv39)
	m8 := mul("m8", t16, k8)
	t17 := add("t17", m8, t15)
	t18 := add("t18", t17, sv38)
	nsv33 := add("nsv33", t16, t17)
	nsv38 := add("nsv38", t17, t18)
	nsv39 := add("nsv39", t18, sv39)
	outp := add("outp", t18, t16)

	for _, v := range []ValueID{nsv2, nsv13, nsv18, nsv26, nsv33, nsv38, nsv39, outp} {
		g.MarkOutput(v)
	}
	return g
}

// Tseng is the Facet example of Tseng and Siewiorek [16]: a small
// mixed-operation graph (arithmetic and logic) over three inputs, exercising
// module allocation across heterogeneous operation types.
func Tseng(width int) *Graph {
	g := New(BenchTseng, width)
	a := g.Input("a")
	b := g.Input("b")
	c := g.Input("c")

	t1 := g.Op(OpAdd, "t1", a, b)
	t2 := g.Op(OpAnd, "t2", a, c)
	t3 := g.Op(OpSub, "t3", t1, c)
	t4 := g.Op(OpOr, "t4", t2, t3)
	t5 := g.Op(OpMul, "t5", t3, b)
	t6 := g.Op(OpAdd, "t6", t4, t5)
	t7 := g.Op(OpSub, "t7", t5, a)
	g.MarkOutput(t6)
	g.MarkOutput(t7)
	return g
}
