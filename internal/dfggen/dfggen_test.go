package dfggen

import (
	"errors"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"repro/internal/dfg"
)

func TestGenerateDeterministic(t *testing.T) {
	specs := []Spec{
		{Seed: 1},
		{Seed: 7, Ops: 40, Mix: "diffeq", Shape: "deep", Fanout: 4, Loop: true},
		{Seed: 99, Ops: 18, Mix: "logic", Shape: "wide", Cond: true},
		{Seed: 3, Ops: 30, Mix: "cmp", Shape: "diamond", Fanout: 8, Loop: true, Cond: true},
	}
	for _, spec := range specs {
		a, err := Generate(spec, 8)
		if err != nil {
			t.Fatalf("Generate(%+v): %v", spec, err)
		}
		b, err := Generate(spec, 8)
		if err != nil {
			t.Fatalf("Generate(%+v) second run: %v", spec, err)
		}
		if a.String() != b.String() {
			t.Errorf("spec %+v: two runs differ:\n%s\n----\n%s", spec, a, b)
		}
	}
}

// TestGenerateGolden pins the byte stream of representative specs with
// FNV-1a checksums. If this fails, the generator's output drifted —
// which silently invalidates every fingerprint-keyed artifact (cache
// entries, store records, cluster placement) built from generated
// benchmarks. Never update these without bumping the spec namespace.
func TestGenerateGolden(t *testing.T) {
	cases := []struct {
		spec Spec
		want uint64
	}{
		{Spec{Seed: 1}, 0xaf479c83417762f2},
		{Spec{Seed: 2, Ops: 12, Mix: "arith", Shape: "deep"}, 0x4881e31a0b80ddfe},
		{Spec{Seed: 5, Ops: 20, Mix: "diffeq", Shape: "diamond", Loop: true}, 0xf9f96a683ff977ba},
	}
	for _, c := range cases {
		g, err := Generate(c.spec, 8)
		if err != nil {
			t.Fatalf("Generate(%+v): %v", c.spec, err)
		}
		h := fnv.New64a()
		h.Write([]byte(g.String()))
		if got := h.Sum64(); got != c.want {
			t.Errorf("spec %+v: graph checksum %#016x, want %#016x\n%s", c.spec, got, c.want, g)
		}
	}
}

func TestGenerateValidAcrossParameterSpace(t *testing.T) {
	seed := uint64(0)
	for _, mixName := range Mixes() {
		for _, shape := range Shapes() {
			for _, fanout := range []int{1, 4, 8} {
				for _, ops := range []int{8, 24, 61} {
					for _, idiom := range []struct{ loop, cond bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
						seed++
						spec := Spec{Seed: seed, Ops: ops, Mix: mixName, Shape: shape, Fanout: fanout, Loop: idiom.loop, Cond: idiom.cond}
						g, err := Generate(spec, 8)
						if err != nil {
							t.Fatalf("Generate(%+v): %v", spec, err)
						}
						checkGraphInvariants(t, spec, g)
					}
				}
			}
		}
	}
}

func checkGraphInvariants(t *testing.T, spec Spec, g *dfg.Graph) {
	t.Helper()
	ns, err := spec.Normalize()
	if err != nil {
		t.Fatalf("Normalize(%+v): %v", spec, err)
	}
	if got := g.NumNodes(); got != ns.Ops {
		t.Errorf("spec %s: %d ops, want %d", ns.Name(), got, ns.Ops)
	}
	if _, err := g.TopoOrder(); err != nil {
		t.Errorf("spec %s: not a DAG: %v", ns.Name(), err)
	}
	for _, id := range g.Inputs() {
		v := g.Value(id)
		if len(v.Uses) == 0 {
			t.Errorf("spec %s: input %s unused", ns.Name(), v.Name)
		}
	}
	for _, id := range g.Consts() {
		v := g.Value(id)
		if len(v.Uses) == 0 {
			t.Errorf("spec %s: const %s unused", ns.Name(), v.Name)
		}
	}
	if len(g.Outputs()) == 0 {
		t.Errorf("spec %s: no primary outputs", ns.Name())
	}
	for _, n := range g.Nodes() {
		switch n.Kind {
		case dfg.OpAdd, dfg.OpSub, dfg.OpMul, dfg.OpLt, dfg.OpGt, dfg.OpEq,
			dfg.OpAnd, dfg.OpOr, dfg.OpXor, dfg.OpNot, dfg.OpMov:
		default:
			t.Errorf("spec %s: op %s not hardware-supported", ns.Name(), n.Kind)
		}
	}
	if spec.Loop {
		if _, ok := g.ValueByName("exit"); !ok {
			t.Errorf("spec %s: loop idiom missing exit value", ns.Name())
		}
	}
	// The graph must be executable: Interpret with deterministic input
	// values exercises every op's reference semantics.
	inputs := map[string]uint64{}
	for i, id := range g.Inputs() {
		inputs[g.Value(id).Name] = uint64(i*37 + 5)
	}
	if _, err := g.Interpret(8, inputs); err != nil {
		t.Errorf("spec %s: Interpret: %v", ns.Name(), err)
	}
}

func TestShapesDiffer(t *testing.T) {
	depths := map[string]int{}
	for _, shape := range Shapes() {
		g, err := Generate(Spec{Seed: 11, Ops: 48, Shape: shape}, 8)
		if err != nil {
			t.Fatalf("shape %s: %v", shape, err)
		}
		depths[shape] = Depth(g)
	}
	if !(depths["deep"] > depths["mesh"] && depths["mesh"] > depths["wide"]) {
		t.Errorf("shape depth ordering violated: %v (want deep > mesh > wide)", depths)
	}
}

func TestNameParseRoundTrip(t *testing.T) {
	specs := []Spec{
		{Seed: 1},
		{Seed: 42, Ops: 33, Mix: "mul", Shape: "diamond", Fanout: 7, Inputs: 5, Consts: 3, Loop: true, Cond: true},
	}
	for _, spec := range specs {
		ns, err := spec.Normalize()
		if err != nil {
			t.Fatalf("Normalize(%+v): %v", spec, err)
		}
		name := spec.Name()
		if !IsGenName(name) {
			t.Fatalf("Name %q lacks the gen: prefix", name)
		}
		back, err := Parse(name)
		if err != nil {
			t.Fatalf("Parse(%q): %v", name, err)
		}
		if back != ns {
			t.Errorf("round trip %q: got %+v, want %+v", name, back, ns)
		}
		if back.Name() != name {
			t.Errorf("re-render of %q differs: %q", name, back.Name())
		}
	}
}

func TestParseRejects(t *testing.T) {
	bad := []string{
		"gen:",
		"gen:s1-o12-mnope",
		"gen:s1-o12-hnope",
		"gen:s1-oNaN",
		"gen:s1-o12-zork",
		"gen:s1-o0",
		"gen:s1-o5000",
		"gen:s1-o12-f99",
		"gen:s1-o4-i9-c2",     // sources exceed body
		"gen:s1-o2-loop-cond", // idioms exceed ops
		"other:abc",
	}
	for _, name := range bad {
		if _, err := Parse(name); !errors.Is(err, ErrBadSpec) {
			t.Errorf("Parse(%q): err = %v, want ErrBadSpec", name, err)
		}
	}
}

func TestByNameResolvesGenNamespace(t *testing.T) {
	spec := Spec{Seed: 9, Ops: 16}
	name := spec.Name()
	g, err := dfg.ByName(name, 8)
	if err != nil {
		t.Fatalf("dfg.ByName(%q): %v", name, err)
	}
	want, err := Generate(spec, 8)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if g.String() != want.String() {
		t.Errorf("ByName and Generate disagree for %q", name)
	}
	if _, err := dfg.ByName("gen:bogus", 8); !errors.Is(err, ErrBadSpec) {
		t.Errorf("ByName(gen:bogus): err = %v, want ErrBadSpec", err)
	}
	if _, err := dfg.ByName("nosuchns:x", 8); !errors.Is(err, dfg.ErrUnknownBenchmark) {
		t.Errorf("ByName(nosuchns:x): err = %v, want ErrUnknownBenchmark", err)
	}
	if _, err := dfg.ByName(name, 0); !errors.Is(err, dfg.ErrBadWidth) {
		t.Errorf("ByName width 0: err = %v, want ErrBadWidth", err)
	}
}

func TestLoopSignal(t *testing.T) {
	loop := Spec{Seed: 1, Loop: true}.Name()
	if got := LoopSignal(loop); got != "exit" {
		t.Errorf("LoopSignal(%q) = %q, want exit", loop, got)
	}
	plain := Spec{Seed: 1}.Name()
	if got := LoopSignal(plain); got != "" {
		t.Errorf("LoopSignal(%q) = %q, want empty", plain, got)
	}
	if got := LoopSignal("diffeq"); got != "" {
		t.Errorf("LoopSignal(diffeq) = %q, want empty (not a gen name)", got)
	}
}

func TestSeedsDiffer(t *testing.T) {
	// Distinct seeds should give distinct graphs essentially always;
	// the benchmark's never-repeated requests (synth-unique, the
	// cluster-mixed misses) depend on it.
	seen := map[string]uint64{}
	for seed := uint64(0); seed < 64; seed++ {
		g, err := Generate(Spec{Seed: seed, Ops: 16}, 8)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		s := g.String()
		// Names embed the seed; strip the header so collisions compare
		// structure, not labels.
		s = s[strings.IndexByte(s, '\n'):]
		if prev, dup := seen[s]; dup {
			t.Errorf("seeds %d and %d generate identical graphs", prev, seed)
		}
		seen[s] = seed
	}
}

func TestNormalizeDefaults(t *testing.T) {
	ns, err := Spec{Seed: 3}.Normalize()
	if err != nil {
		t.Fatalf("Normalize zero spec: %v", err)
	}
	if ns.Ops != 24 || ns.Mix != "mixed" || ns.Shape != "mesh" || ns.Fanout != 2 {
		t.Errorf("unexpected defaults: %+v", ns)
	}
	if ns.Inputs == 0 || ns.Consts == 0 {
		t.Errorf("defaults left sources unset: %+v", ns)
	}
	again, err := ns.Normalize()
	if err != nil || again != ns {
		t.Errorf("Normalize not idempotent: %+v vs %+v (%v)", again, ns, err)
	}
}

func BenchmarkGenerate(b *testing.B) {
	for _, ops := range []int{24, 256} {
		b.Run(fmt.Sprintf("ops=%d", ops), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Generate(Spec{Seed: uint64(i), Ops: ops}, 8); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
