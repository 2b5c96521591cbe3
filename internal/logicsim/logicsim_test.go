package logicsim

import (
	"testing"
	"testing/quick"

	"repro/internal/dfg"
	"repro/internal/fault"
	"repro/internal/gates"
)

// buildAdder builds a 4-bit combinational adder circuit.
func buildAdder(t *testing.T) (*gates.Circuit, gates.Word, gates.Word) {
	t.Helper()
	b := gates.NewBuilder()
	x := b.InputWord("x", 4)
	y := b.InputWord("y", 4)
	s, _ := b.Adder(x, y, b.Const(false))
	b.OutputWord("s", s)
	c, err := b.Done()
	if err != nil {
		t.Fatal(err)
	}
	return c, x, y
}

// buildCounter builds a 4-bit counter: q <= q + 1 each cycle, with a PI
// enable.
func buildCounter(t *testing.T) *gates.Circuit {
	t.Helper()
	b := gates.NewBuilder()
	en := b.Input("en")
	q := b.DFFWord("q", 4)
	one := b.ConstWord(1, 4)
	inc, _ := b.Adder(q, one, b.Const(false))
	next := b.Mux2W(en, inc, q)
	b.SetDWord(q, next)
	b.OutputWord("q", q)
	c, err := b.Done()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// newSim compiles c and returns a fault-free simulator for it.
func newSim(t testing.TB, c *gates.Circuit) *Sim {
	t.Helper()
	p, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return New(p)
}

func TestEvalAdderAllPairs(t *testing.T) {
	c, _, _ := buildAdder(t)
	s := newSim(t, c)
	// Pack all 16x16 combinations into 4 batches of 64 patterns.
	for base := 0; base < 256; base += 64 {
		pi := make([]uint64, 8)
		for lane := 0; lane < 64; lane++ {
			a := uint64((base + lane) >> 4)
			bb := uint64((base + lane) & 15)
			for i := 0; i < 4; i++ {
				if a&(1<<uint(i)) != 0 {
					pi[i] |= 1 << uint(lane)
				}
				if bb&(1<<uint(i)) != 0 {
					pi[4+i] |= 1 << uint(lane)
				}
			}
		}
		po := s.Eval(pi)
		for lane := 0; lane < 64; lane++ {
			a := uint64((base + lane) >> 4)
			bb := uint64((base + lane) & 15)
			var got uint64
			for i := 0; i < 4; i++ {
				if po[i]&(1<<uint(lane)) != 0 {
					got |= 1 << uint(i)
				}
			}
			if want := (a + bb) & 15; got != want {
				t.Fatalf("%d+%d = %d, want %d", a, bb, got, want)
			}
		}
	}
}

func TestCounterSequence(t *testing.T) {
	c := buildCounter(t)
	s := newSim(t, c)
	s.Reset()
	en := ^uint64(0)
	for cyc := 0; cyc < 20; cyc++ {
		po := s.Step([]uint64{en})
		var q uint64
		for i := 0; i < 4; i++ {
			if po[i]&1 != 0 {
				q |= 1 << uint(i)
			}
		}
		if want := uint64(cyc) & 15; q != want {
			t.Fatalf("cycle %d: q = %d, want %d", cyc, q, want)
		}
	}
	// With enable low, the counter holds. Step returns the Sim's reused
	// output buffer, so the first observation must be saved by value
	// before the next Step overwrites it.
	s.Reset()
	s.Step([]uint64{en})         // q: 0 -> 1
	q1 := s.Step([]uint64{0})[0] // observe 1, hold
	if q2 := s.Step([]uint64{0})[0]; q1 != q2 {
		t.Error("counter did not hold with enable low")
	}
}

// Eval and Step must reuse the per-Sim output buffer — the documented
// contract the fault-simulation and BIST inner loops rely on for their
// zero-allocation steady state.
func TestEvalStepZeroAllocSteadyState(t *testing.T) {
	c := buildCounter(t)
	s := newSim(t, c)
	pi := []uint64{^uint64(0)}
	first := s.Eval(pi)
	if again := s.Eval(pi); &again[0] != &first[0] {
		t.Error("Eval did not reuse its output buffer")
	}
	if n := testing.AllocsPerRun(200, func() { s.Eval(pi) }); n != 0 {
		t.Errorf("Eval allocates %.1f objects per call in steady state, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { s.Step(pi) }); n != 0 {
		t.Errorf("Step allocates %.1f objects per call in steady state, want 0", n)
	}
}

// Run's rows must be copies: still valid after later Eval/Step calls
// overwrite the shared output buffer.
func TestRunRowsSurviveLaterSteps(t *testing.T) {
	c := buildCounter(t)
	s := newSim(t, c)
	vecs := [][]uint64{{^uint64(0)}, {^uint64(0)}, {^uint64(0)}}
	out := s.Run(vecs)
	want := make([][]uint64, len(out))
	for t2, row := range out {
		want[t2] = append([]uint64(nil), row...)
	}
	for i := 0; i < 5; i++ {
		s.Step([]uint64{^uint64(0)})
	}
	for t2 := range out {
		for k := range out[t2] {
			if out[t2][k] != want[t2][k] {
				t.Fatalf("Run row %d mutated by later Step calls", t2)
			}
		}
	}
}

func TestBusWords(t *testing.T) {
	w := BusWords(0b1010, 4)
	if w[0] != 0 || w[1] != ^uint64(0) || w[2] != 0 || w[3] != ^uint64(0) {
		t.Fatalf("BusWords wrong: %v", w)
	}
}

func TestFaultInjectionOutput(t *testing.T) {
	c, x, _ := buildAdder(t)
	p, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	// Force PI x[0]'s net stuck-at-1 and add 0+0: sum must be 1.
	tr := NewTrace(p, nil, [][]uint64{make([]uint64, 8)})
	po := FaultyOutputs(tr, &fault.Fault{Gate: x[0], Pin: -1, Val: true})[0]
	if po[0] != ^uint64(0) {
		t.Errorf("s[0] = %x with x[0] s-a-1 on 0+0", po[0])
	}
	for k := 1; k < len(po); k++ {
		if po[k] != 0 {
			t.Errorf("s[%d] = %x with x[0] s-a-1 on 0+0", k, po[k])
		}
	}
}

func TestFaultSimDetectsPIStuck(t *testing.T) {
	c, x, _ := buildAdder(t)
	flist := []fault.Fault{
		{Gate: x[0], Pin: -1, Val: true},  // detectable with x[0]=0
		{Gate: x[0], Pin: -1, Val: false}, // detectable with x[0]=1
	}
	// One vector with x = 0, y = 0 detects s-a-1 but not s-a-0.
	vectors := [][]uint64{make([]uint64, 8)}
	detected := make([]bool, 2)
	cycles := []int{-1, -1}
	n, err := FaultSimIncrementalWorkers(c, flist, detected, cycles, vectors, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !detected[0] || detected[1] {
		t.Fatalf("detection = %v, want [true false]", detected)
	}
	if n != 1 {
		t.Errorf("newly detected %d, want 1", n)
	}
	if cycles[0] != 0 || cycles[1] != -1 {
		t.Errorf("detect cycles = %v", cycles)
	}
}

func TestFaultSimIncremental(t *testing.T) {
	c, x, _ := buildAdder(t)
	flist := []fault.Fault{
		{Gate: x[0], Pin: -1, Val: true},
		{Gate: x[0], Pin: -1, Val: false},
	}
	detected := make([]bool, 2)
	cycles := []int{-1, -1}
	// First batch: x=0 detects fault 0.
	n, err := FaultSimIncrementalWorkers(c, flist, detected, cycles, [][]uint64{make([]uint64, 8)}, 0, 0)
	if err != nil || n != 1 {
		t.Fatalf("first batch: n=%d err=%v", n, err)
	}
	// Second batch: x=1 detects fault 1.
	v := make([]uint64, 8)
	v[0] = ^uint64(0)
	n, err = FaultSimIncrementalWorkers(c, flist, detected, cycles, [][]uint64{v}, 1, 0)
	if err != nil || n != 1 {
		t.Fatalf("second batch: n=%d err=%v", n, err)
	}
	if !detected[0] || !detected[1] {
		t.Errorf("detected = %v", detected)
	}
	if cycles[1] != 1 {
		t.Errorf("second fault detect cycle = %d, want 1", cycles[1])
	}
}

func TestRandomVectorsCoverMostAdderFaults(t *testing.T) {
	c, _, _ := buildAdder(t)
	flist := fault.Collapse(c)
	if len(flist) == 0 {
		t.Fatal("empty collapsed fault list")
	}
	// 64 random patterns in one word per PI (combinational: 1 cycle).
	pi := make([]uint64, len(c.Inputs))
	rng := uint64(0x9E3779B97F4A7C15)
	for i := range pi {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		pi[i] = rng
	}
	n, err := FaultSimIncrementalWorkers(c, flist, make([]bool, len(flist)), nil, [][]uint64{pi}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cov := float64(n) / float64(len(flist)); cov < 0.9 {
		t.Errorf("adder coverage %.2f with 64 random patterns; expected > 0.9", cov)
	}
}

func TestEnumerateAndCollapse(t *testing.T) {
	c, _, _ := buildAdder(t)
	full := fault.Enumerate(c)
	collapsed := fault.Collapse(c)
	if len(collapsed) >= len(full) {
		t.Errorf("collapse did not shrink: %d vs %d", len(collapsed), len(full))
	}
	if len(collapsed) < len(full)/4 {
		t.Errorf("collapse too aggressive: %d of %d", len(collapsed), len(full))
	}
}

func TestSample(t *testing.T) {
	fs := make([]fault.Fault, 100)
	for i := range fs {
		fs[i] = fault.Fault{Gate: i}
	}
	s := fault.Sample(fs, 10)
	if len(s) != 10 {
		t.Fatalf("sample size %d", len(s))
	}
	if s[0].Gate != 0 || s[9].Gate != 90 {
		t.Errorf("sample not evenly spaced: %v %v", s[0], s[9])
	}
	if len(fault.Sample(fs, 0)) != 100 || len(fault.Sample(fs, 200)) != 100 {
		t.Error("degenerate sample sizes mishandled")
	}
}

func TestFaultString(t *testing.T) {
	if (fault.Fault{Gate: 3, Pin: -1, Val: true}).String() != "g3/out s-a-1" {
		t.Error("output fault rendering")
	}
	if (fault.Fault{Gate: 3, Pin: 1, Val: false}).String() != "g3/in1 s-a-0" {
		t.Error("input fault rendering")
	}
}

// Cross-check: bit-parallel simulation equals the dfg reference on random
// multiplier inputs.
func TestSimMatchesReferenceMultiplier(t *testing.T) {
	b := gates.NewBuilder()
	x := b.InputWord("x", 8)
	y := b.InputWord("y", 8)
	p := b.Multiplier(x, y)
	b.OutputWord("p", p)
	c, err := b.Done()
	if err != nil {
		t.Fatal(err)
	}
	s := newSim(t, c)
	prop := func(a, bb uint8) bool {
		pi := append(BusWords(uint64(a), 8), BusWords(uint64(bb), 8)...)
		po := s.Eval(pi)
		var got uint64
		for i := 0; i < 8; i++ {
			if po[i]&1 != 0 {
				got |= 1 << uint(i)
			}
		}
		return got == dfg.Eval(dfg.OpMul, 8, uint64(a), uint64(bb))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
