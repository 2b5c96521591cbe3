// Package dfggen generates seeded, deterministic random data-flow
// graphs. It is the workload substrate behind property tests and the
// load schedules of internal/loadgen: every (Spec, width) pair reproduces a
// byte-identical dfg.Graph on every run and every platform, so
// generated behaviours are usable wherever determinism is load-bearing
// — fingerprint-keyed caching, request coalescing, and cluster
// placement all key on the graph's canonical hash.
//
// Specs travel as benchmark names. Spec.Name renders a canonical
// "gen:..." string and the package registers that namespace with
// dfg.RegisterResolver in init, so a generated behaviour is
// addressable anywhere a benchmark name is accepted (the hlts facade,
// the daemon's `bench` field, hltsbench -gen, the table endpoint)
// with no new wire format:
//
//	gen:s7-o24-mmixed-hmesh-f2-i4-c2
//	gen:s1-o16-mdiffeq-hdeep-f3-i4-c2-loop
//
// Graphs are built layer by layer. The shape picks the layer profile
// (mesh ~ square, wide ~ shallow and broad, deep ~ narrow chains,
// diamond ~ swell then taper); depth is forced by reserving each
// non-entry op's first operand for a previous-layer value. Fan-out is
// a hub bias: higher -f makes a few early values feed many ops.
// Inputs and constants are guaranteed to be consumed (a FIFO of
// unused sources drains into free operand slots before any reuse),
// and temps nothing consumes become primary outputs, so generated
// graphs always pass dfg.Validate and the stage-boundary checkers in
// internal/validate.
//
// Only hardware-supported op kinds are emitted (the word-level gate
// builder rejects shifts), so every generated graph flows through all
// four synthesis flows, RTL generation, ATPG, and BIST unchanged.
package dfggen

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/dfg"
	"repro/internal/gates"
)

// ErrBadSpec tags every spec validation and parse error so callers
// (the daemon maps it to a 400) can distinguish caller mistakes from
// generator bugs.
var ErrBadSpec = errors.New("dfggen: bad generator spec")

// Prefix is the benchmark-name namespace registered with dfg.ByName.
const Prefix = "gen"

func init() {
	dfg.RegisterResolver(Prefix, func(name string, width int) (*dfg.Graph, error) {
		spec, err := Parse(name)
		if err != nil {
			return nil, err
		}
		return Generate(spec, width)
	})
}

// Spec parameterizes one generated graph. The zero value of every
// field means "default"; Normalize fills defaults and validates
// ranges. Two specs that normalize equal generate identical graphs.
type Spec struct {
	Seed   uint64 // PRNG seed; the only source of randomness
	Ops    int    // total operation count, including loop/cond idiom ops (default 24)
	Mix    string // op-kind weighting: arith, mul, logic, cmp, mixed, diffeq (default mixed)
	Shape  string // layer profile: mesh, wide, deep, diamond (default mesh)
	Fanout int    // hub bias 1..8; higher concentrates uses on few values (default 2)
	Inputs int    // primary inputs (default ~ops/4, clamped to [2,16])
	Consts int    // constants (default ~ops/8, clamped to [1,8])
	Loop   bool   // append Diffeq's loop idiom: x1=x+dx, exit=(x1<xmax), costs 2 ops
	Cond   bool   // append a conditional select r=e+lt*(t-e), costs 4 ops
}

// opWeight is one entry of a mix table. Tables are ordered slices, not
// maps, so weighted draws are deterministic.
type opWeight struct {
	kind   dfg.OpKind
	weight int
}

var mixes = map[string][]opWeight{
	"arith":  {{dfg.OpAdd, 5}, {dfg.OpSub, 3}, {dfg.OpMul, 2}},
	"mul":    {{dfg.OpMul, 3}, {dfg.OpAdd, 2}, {dfg.OpSub, 1}},
	"logic":  {{dfg.OpAnd, 3}, {dfg.OpOr, 3}, {dfg.OpXor, 2}, {dfg.OpNot, 1}},
	"cmp":    {{dfg.OpAdd, 3}, {dfg.OpSub, 2}, {dfg.OpLt, 1}, {dfg.OpGt, 1}, {dfg.OpEq, 1}},
	"mixed":  {{dfg.OpAdd, 4}, {dfg.OpSub, 3}, {dfg.OpMul, 2}, {dfg.OpAnd, 2}, {dfg.OpOr, 2}, {dfg.OpXor, 1}, {dfg.OpLt, 1}, {dfg.OpNot, 1}},
	"diffeq": {{dfg.OpMul, 6}, {dfg.OpAdd, 2}, {dfg.OpSub, 2}, {dfg.OpLt, 1}},
}

var shapeNames = []string{"mesh", "wide", "deep", "diamond"}

// Mixes returns the known mix names in sorted order.
func Mixes() []string {
	return []string{"arith", "cmp", "diffeq", "logic", "mixed", "mul"}
}

// Shapes returns the known shape names.
func Shapes() []string { return append([]string(nil), shapeNames...) }

func knownShape(s string) bool {
	for _, k := range shapeNames {
		if s == k {
			return true
		}
	}
	return false
}

// idiom op budgets: Loop appends 2 ops, Cond appends 4.
const (
	loopOps = 2
	condOps = 4
)

// Normalize fills defaults and validates ranges. It is idempotent;
// Name and Generate call it internally, so callers only need it when
// they want to inspect the resolved parameters.
func (s Spec) Normalize() (Spec, error) {
	if s.Ops == 0 {
		s.Ops = 24
	}
	if s.Ops < 1 || s.Ops > 4096 {
		return s, fmt.Errorf("%w: ops %d outside [1,4096]", ErrBadSpec, s.Ops)
	}
	if s.Mix == "" {
		s.Mix = "mixed"
	}
	if _, ok := mixes[s.Mix]; !ok {
		return s, fmt.Errorf("%w: unknown mix %q (have %s)", ErrBadSpec, s.Mix, strings.Join(Mixes(), ", "))
	}
	if s.Shape == "" {
		s.Shape = "mesh"
	}
	if !knownShape(s.Shape) {
		return s, fmt.Errorf("%w: unknown shape %q (have %s)", ErrBadSpec, s.Shape, strings.Join(shapeNames, ", "))
	}
	if s.Fanout == 0 {
		s.Fanout = 2
	}
	if s.Fanout < 1 || s.Fanout > 8 {
		return s, fmt.Errorf("%w: fanout %d outside [1,8]", ErrBadSpec, s.Fanout)
	}
	reserved := 0
	if s.Loop {
		reserved += loopOps
	}
	if s.Cond {
		reserved += condOps
	}
	body := s.Ops - reserved
	min := 1
	if s.Cond {
		// The select idiom blends two existing temps, so the body must
		// produce at least two.
		min = 2
	}
	if body < min {
		return s, fmt.Errorf("%w: ops %d too small for requested idioms (need %d beyond the %d idiom ops)", ErrBadSpec, s.Ops, min, reserved)
	}
	defIn, defC := s.Inputs == 0, s.Consts == 0
	if defC {
		s.Consts = clamp(body/8, 1, 8)
	}
	if defIn {
		s.Inputs = clamp(body/4, 2, 16)
	}
	// Defaulted source counts shrink to fit tiny bodies; explicit ones
	// are the caller's claim and error below instead.
	if defIn && s.Inputs+s.Consts > body {
		s.Inputs = clamp(body-s.Consts, 1, s.Inputs)
	}
	if defC && s.Inputs+s.Consts > body {
		s.Consts = clamp(body-s.Inputs, 1, s.Consts)
	}
	if s.Inputs < 1 || s.Inputs > 64 {
		return s, fmt.Errorf("%w: inputs %d outside [1,64]", ErrBadSpec, s.Inputs)
	}
	if s.Consts < 1 || s.Consts > 32 {
		return s, fmt.Errorf("%w: consts %d outside [1,32]", ErrBadSpec, s.Consts)
	}
	// Every source must be consumable: each body op retires at least one
	// fresh source on average only if sources <= body (generate flips
	// unary kinds to binary when slots run short, but even then an op
	// has at most 2 slots and deeper ops reserve one for the depth edge).
	if s.Inputs+s.Consts > body {
		return s, fmt.Errorf("%w: inputs+consts %d exceeds body ops %d; every source must be consumed", ErrBadSpec, s.Inputs+s.Consts, body)
	}
	return s, nil
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Name renders the canonical benchmark name for the spec. The name
// round-trips through Parse and embeds every normalized parameter, so
// equal names mean byte-identical graphs (and therefore equal
// fingerprints). Invalid specs render to a name that Parse will then
// reject; callers who need the error early should Normalize first.
func (s Spec) Name() string {
	if n, err := s.Normalize(); err == nil {
		s = n
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s:s%d-o%d-m%s-h%s-f%d-i%d-c%d", Prefix, s.Seed, s.Ops, s.Mix, s.Shape, s.Fanout, s.Inputs, s.Consts)
	if s.Loop {
		b.WriteString("-loop")
	}
	if s.Cond {
		b.WriteString("-cond")
	}
	return b.String()
}

// Parse decodes a canonical spec name (with or without the "gen:"
// prefix) back into a Spec. All errors wrap ErrBadSpec.
func Parse(name string) (Spec, error) {
	body := strings.TrimPrefix(name, Prefix+":")
	if body == "" || body == name && strings.Contains(name, ":") {
		return Spec{}, fmt.Errorf("%w: %q is not in the %s: namespace", ErrBadSpec, name, Prefix)
	}
	var s Spec
	for _, tok := range strings.Split(body, "-") {
		if tok == "" {
			return Spec{}, fmt.Errorf("%w: empty field in %q", ErrBadSpec, name)
		}
		switch {
		case tok == "loop":
			s.Loop = true
			continue
		case tok == "cond":
			s.Cond = true
			continue
		}
		key, val := tok[:1], tok[1:]
		if val == "" {
			return Spec{}, fmt.Errorf("%w: field %q in %q has no value", ErrBadSpec, tok, name)
		}
		switch key {
		case "m":
			s.Mix = val
		case "h":
			s.Shape = val
		case "s", "o", "f", "i", "c":
			u, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return Spec{}, fmt.Errorf("%w: field %q in %q is not a number", ErrBadSpec, tok, name)
			}
			if u == 0 && key != "s" {
				// Zero in the Spec means "default"; an explicit zero in a
				// name would not round-trip, so reject it.
				return Spec{}, fmt.Errorf("%w: field %q in %q must be positive", ErrBadSpec, tok, name)
			}
			switch key {
			case "s":
				s.Seed = u
			case "o":
				s.Ops = int(u)
			case "f":
				s.Fanout = int(u)
			case "i":
				s.Inputs = int(u)
			case "c":
				s.Consts = int(u)
			}
		default:
			return Spec{}, fmt.Errorf("%w: unknown field %q in %q", ErrBadSpec, tok, name)
		}
	}
	if _, err := s.Normalize(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// rng is the splitmix64 stream (Steele et al.), chosen over math/rand
// for a fixed, documented algorithm: the generated byte stream is pinned
// by golden tests and must never drift across Go releases or platforms.
type rng struct{ state uint64 }

func newRNG(seed uint64) *rng { return &rng{state: seed} }

// next returns the finalizer of the current state, then steps the state by
// the golden-ratio increment gates.SplitMix64 adds.
func (r *rng) next() uint64 {
	z := gates.SplitMix64(r.state)
	r.state += 0x9e3779b97f4a7c15
	return z
}

// intn returns a uniform-ish draw in [0,n). Modulo bias is irrelevant
// here — draws shape workloads, they are not cryptographic — and the
// simple form keeps the stream easy to reproduce in other tooling.
func (r *rng) intn(n int) int {
	if n <= 1 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// layerSizes splits body ops into the layer profile for a shape. Every
// layer has at least one op and the sizes sum to body.
func layerSizes(body int, shape string) []int {
	if body <= 1 {
		return []int{body}
	}
	var depth int
	switch shape {
	case "deep":
		// Narrow chains: at most two ops per layer.
		depth = (body + 1) / 2
	case "wide":
		// Broad and shallow: a handful of layers regardless of size.
		depth = clamp(body/6, 2, 4)
	case "diamond":
		depth = isqrt(2 * body)
		if depth < 3 {
			depth = 3
		}
	default: // mesh
		depth = isqrt(body)
		if depth < 2 {
			depth = 2
		}
	}
	if depth > body {
		depth = body
	}
	sizes := make([]int, depth)
	if shape == "diamond" {
		// Triangular profile swelling to the middle: weight layer l by
		// min(l+1, depth-l), then scale to body by largest remainder.
		weights := make([]int, depth)
		total := 0
		for l := range weights {
			w := l + 1
			if d := depth - l; d < w {
				w = d
			}
			weights[l] = w
			total += w
		}
		assigned := 0
		for l := range sizes {
			sizes[l] = 1 + (body-depth)*weights[l]/total
			assigned += sizes[l]
		}
		// Rounding slack lands on the widest (middle) layer.
		sizes[depth/2] += body - assigned
		return sizes
	}
	base, rem := body/depth, body%depth
	for l := range sizes {
		sizes[l] = base
		if l < rem {
			sizes[l]++
		}
	}
	return sizes
}

// isqrt is the integer square root (floor).
func isqrt(n int) int {
	if n <= 0 {
		return 0
	}
	r := n
	for r*r > n {
		r = (r + n/r) / 2
	}
	return r
}

// Generate builds the graph for a spec at the given bit width. The
// construction touches no maps in iteration order and no floats, so
// the result is byte-identical across runs and platforms.
func Generate(spec Spec, width int) (*dfg.Graph, error) {
	s, err := spec.Normalize()
	if err != nil {
		return nil, err
	}
	if err := dfg.CheckWidth(width); err != nil {
		return nil, err
	}
	r := newRNG(s.Seed)
	g := dfg.New(s.Name(), width)

	body := s.Ops
	if s.Loop {
		body -= loopOps
	}
	if s.Cond {
		body -= condOps
	}

	// Sources. Values are created in a fixed order (inputs then consts)
	// and consumption is guaranteed below.
	var pool, unused []dfg.ValueID
	for i := 0; i < s.Inputs; i++ {
		v := g.Input(fmt.Sprintf("in%d", i))
		pool = append(pool, v)
		unused = append(unused, v)
	}
	for i := 0; i < s.Consts; i++ {
		v := g.Const(fmt.Sprintf("k%d", i), 1+int64(r.intn(97)))
		pool = append(pool, v)
		unused = append(unused, v)
	}

	// Draw op kinds up front so slot accounting can run before any node
	// exists: each non-entry op reserves its first slot for a
	// previous-layer value (that is what forces the DAG depth), and the
	// remaining free slots must cover every unconsumed source. When the
	// draw leaves too few free slots (a unary-heavy run), later unary
	// ops are flipped to the mix's first binary kind — a deterministic
	// repair that preserves the guarantee without rejection sampling.
	mix := mixes[s.Mix]
	totalWeight := 0
	for _, w := range mix {
		totalWeight += w.weight
	}
	kinds := make([]dfg.OpKind, body)
	for i := range kinds {
		d := r.intn(totalWeight)
		for _, w := range mix {
			if d < w.weight {
				kinds[i] = w.kind
				break
			}
			d -= w.weight
		}
	}
	sizes := layerSizes(body, s.Shape)
	layerOf := make([]int, body)
	{
		i := 0
		for l, n := range sizes {
			for j := 0; j < n; j++ {
				layerOf[i] = l
				i++
			}
		}
	}
	free := 0
	for i, k := range kinds {
		free += k.Arity()
		if layerOf[i] > 0 {
			free-- // depth edge
		}
	}
	binary := mix[0].kind
	if binary.Arity() != 2 {
		for _, w := range mix {
			if w.kind.Arity() == 2 {
				binary = w.kind
				break
			}
		}
	}
	for i := body - 1; free < len(unused) && i >= 0; i-- {
		if kinds[i].Arity() == 1 {
			kinds[i] = binary
			free++
		}
	}

	// pickReuse selects an already-live value with the spec's fan-out
	// bias: with probability fanout/10 reuse one of the first few pool
	// entries (hubs), otherwise prefer recent values (a geometric walk
	// back from the newest), which keeps lifetimes short and meshes
	// local.
	pickReuse := func(from []dfg.ValueID) dfg.ValueID {
		if r.intn(10) < s.Fanout {
			h := s.Fanout
			if h > len(from) {
				h = len(from)
			}
			return from[r.intn(h)]
		}
		k := 0
		for r.intn(2) == 0 && k < len(from)-1 {
			k++
		}
		return from[len(from)-1-k]
	}
	// drain pops an unused source, biased toward the oldest so no
	// source starves while the FIFO is long.
	drain := func() dfg.ValueID {
		i := 0
		if len(unused) > 1 && r.intn(4) != 0 {
			i = r.intn(len(unused))
		}
		v := unused[i]
		unused = append(unused[:i], unused[i+1:]...)
		return v
	}

	var temps []dfg.ValueID
	var prev []dfg.ValueID // previous layer's results
	idx := 0
	for l, n := range sizes {
		// Reuse only values defined before this layer: same-layer chains
		// would silently deepen the graph past the shape's profile.
		reusable := len(pool)
		cur := make([]dfg.ValueID, 0, n)
		for j := 0; j < n; j++ {
			kind := kinds[idx]
			operands := make([]dfg.ValueID, 0, kind.Arity())
			for slot := 0; slot < kind.Arity(); slot++ {
				switch {
				case l > 0 && slot == 0:
					operands = append(operands, prev[r.intn(len(prev))])
				case len(unused) > 0:
					operands = append(operands, drain())
				default:
					operands = append(operands, pickReuse(pool[:reusable]))
				}
			}
			v := g.Op(kind, fmt.Sprintf("w%d", idx), operands...)
			pool = append(pool, v)
			temps = append(temps, v)
			cur = append(cur, v)
			idx++
		}
		prev = cur
	}
	if len(unused) > 0 {
		// Unreachable by construction (Normalize bounds sources by free
		// slots and the repair pass tops free up); kept as a tripwire.
		return nil, fmt.Errorf("dfggen: internal error: %d sources left unconsumed", len(unused))
	}

	if s.Cond {
		// Conditional select in straight-line arithmetic, the standard
		// if-conversion idiom: r = e + (t<e')·(t-e). Mirrors how Diffeq's
		// original behaviour folds control into dataflow.
		a := pool[r.intn(len(pool))]
		b := pool[r.intn(len(pool))]
		if a == b {
			b = pool[r.intn(len(pool))]
		}
		t := temps[r.intn(len(temps))]
		e := temps[r.intn(len(temps))]
		if t == e {
			e = temps[(int(t)+1)%len(temps)]
			if t == e {
				e = a
			}
		}
		c := g.Op(dfg.OpLt, "csel", a, b)
		d := g.Op(dfg.OpSub, "cdif", t, e)
		m := g.Op(dfg.OpMul, "cprd", c, d)
		sum := g.Op(dfg.OpAdd, "csum", e, m)
		g.MarkOutput(sum)
	}

	if s.Loop {
		// Diffeq's loop idiom: advance the induction variable and
		// compare against the bound; the exit value closes the loop.
		x := g.Input("lx")
		dx := g.Input("ldx")
		xmax := g.Input("lxmax")
		x1 := g.Op(dfg.OpAdd, "x1", x, dx)
		exit := g.Op(dfg.OpLt, "exit", x1, xmax)
		g.Loop = "exit"
		g.MarkOutput(x1)
		g.MarkOutput(exit)
	}

	// Temps nothing consumed are the behaviour's primary outputs.
	for _, v := range temps {
		val := g.Value(v)
		if len(val.Uses) == 0 && !val.IsOutput {
			g.MarkOutput(v)
		}
	}
	if g.Outputs() == nil {
		// Every temp was consumed downstream (possible only via the cond
		// idiom consuming the last layer): promote the final temp.
		g.MarkOutput(temps[len(temps)-1])
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("dfggen: generated graph invalid: %w", err)
	}
	return g, nil
}

// Depth returns the longest input-to-output path length in ops — the
// graph's critical-path lower bound on schedule length.
func Depth(g *dfg.Graph) int {
	order, err := g.TopoOrder()
	if err != nil {
		return 0
	}
	depth := make([]int, g.NumNodes())
	max := 0
	for _, id := range order {
		d := 1
		for _, p := range g.Preds(id) {
			if depth[p]+1 > d {
				d = depth[p] + 1
			}
		}
		depth[id] = d
		if d > max {
			max = d
		}
	}
	return max
}
