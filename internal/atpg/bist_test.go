package atpg

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"repro/internal/alloc"
	"repro/internal/dfg"
	"repro/internal/etpn"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/gates"
	"repro/internal/logicsim"
	"repro/internal/rtl"
	"repro/internal/sched"
)

// buildBISTNetlist synthesizes a small data path (Tseng, 4-bit) and wraps
// register 0 as TPG and register 1 as MISR, the standard BIST fixture.
func buildBISTNetlist(t *testing.T) *rtl.Netlist {
	t.Helper()
	g := dfg.Tseng(4)
	s, err := sched.NewProblem(g).ASAP()
	if err != nil {
		t.Fatal(err)
	}
	life := alloc.Lifetimes(g, s)
	regOf, n := alloc.RegisterLeftEdge(g, life)
	a := alloc.BindModules(g, s, sched.ExactClass, regOf, n)
	d, err := etpn.Build(g, s, a, life, etpn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	nl, err := rtl.GenerateBIST(d, 4, rtl.NormalMode, []int{0}, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	return nl
}

func TestRunBISTCyclesError(t *testing.T) {
	nl := buildBISTNetlist(t)
	for _, cycles := range []int{0, -3} {
		_, err := RunBISTCfgCtx(context.Background(), nl.C, 10, cycles, BISTConfig{})
		if !errors.Is(err, ErrBISTCycles) {
			t.Errorf("cycles=%d: err = %v, want ErrBISTCycles", cycles, err)
		}
	}
}

func TestRunBISTLanesValidation(t *testing.T) {
	nl := buildBISTNetlist(t)
	for _, lanes := range []int{-1, 65, 1000} {
		if _, err := RunBISTCfgCtx(context.Background(), nl.C, 10, 4, BISTConfig{Lanes: lanes}); err == nil {
			t.Errorf("lanes=%d: expected error", lanes)
		}
	}
}

func TestRunBISTDuplicateEnable(t *testing.T) {
	b := gates.NewBuilder()
	x := b.Input("bist_en")
	y := b.Input("bist_en")
	b.Output("sig_r0[0]", b.Xor(x, y))
	c, err := b.Done()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunBISTCfgCtx(context.Background(), c, 10, 4, BISTConfig{}); !errors.Is(err, ErrDuplicateBISTEnable) {
		t.Fatalf("err = %v, want ErrDuplicateBISTEnable", err)
	}
}

// legacyBIST reimplements the original single-session evaluator's
// stimulus and verdict (one shared xorshift stream replicated to all
// lanes, the all-zero reset, bit-0 signature compare) over the fault
// simulator, whose own reference test lives in logicsim: the reference for
// the Lanes: 1 bit-identity guarantee.
func legacyBIST(t *testing.T, c *gates.Circuit, sampleFaults, cycles int) []bool {
	t.Helper()
	bistEn := -1
	for i, id := range c.Inputs {
		if c.Gates[id].Name == "bist_en" {
			bistEn = i
		}
	}
	if bistEn < 0 {
		t.Fatal("no bist_en input")
	}
	var sigPOs []int
	for i, name := range c.OutputNames {
		if len(name) >= 4 && name[:4] == "sig_" {
			sigPOs = append(sigPOs, i)
		}
	}
	rng := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	vec := make([][]uint64, cycles)
	for tt := range vec {
		v := make([]uint64, len(c.Inputs))
		for i := range v {
			if next()&1 != 0 {
				v[i] = ^uint64(0)
			}
		}
		v[bistEn] = ^uint64(0)
		vec[tt] = v
	}
	p, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	flist := fault.Sample(fault.Collapse(c), sampleFaults)
	det := make([]bool, len(flist))
	// The single session from the all-zero reset, judged on lane 0 of the
	// final signature.
	_, err = logicsim.NewTrace(p, nil, vec).Simulate(context.Background(), flist, nil, 1,
		logicsim.Observe{POs: sigPOs, Mask: 1, Session: true},
		func(i, cycle int, _ uint64) { det[i] = cycle >= 0 })
	if err != nil {
		t.Fatal(err)
	}
	return det
}

// Lanes: 1 must reproduce the pre-PPSFP evaluator bit for bit: lane 0's
// stimulus stream, register reset state and signature compare are all the
// legacy ones, and the upper 63 lanes are masked out of the compare.
func TestRunBISTSingleLaneMatchesLegacy(t *testing.T) {
	nl := buildBISTNetlist(t)
	const faults, cycles = 60, 48
	ref := legacyBIST(t, nl.C, faults, cycles)
	nRef := 0
	for _, d := range ref {
		if d {
			nRef++
		}
	}
	out, err := RunBISTCfgCtx(context.Background(), nl.C, faults, cycles, BISTConfig{Lanes: 1, TPGRegs: nl.BISTTpg})
	if err != nil {
		t.Fatal(err)
	}
	if out.Detected != nRef || out.TotalFaults != len(ref) || out.Evaluated != len(ref) {
		t.Errorf("Lanes:1 detected %d/%d, legacy %d/%d",
			out.Detected, out.TotalFaults, nRef, len(ref))
	}
	if out.Lanes != 1 {
		t.Errorf("Lanes = %d, want 1", out.Lanes)
	}
}

// Lane 0 of a 64-lane session is exactly the legacy session, so widening
// can only add detections, and the bookkeeping must price every fault at
// cycles simulation passes regardless of lane count.
func TestRunBISTLaneMonotonicAndPasses(t *testing.T) {
	nl := buildBISTNetlist(t)
	const faults, cycles = 60, 48
	one, err := RunBISTCfgCtx(context.Background(), nl.C, faults, cycles, BISTConfig{Lanes: 1, TPGRegs: nl.BISTTpg})
	if err != nil {
		t.Fatal(err)
	}
	all, err := RunBISTCfgCtx(context.Background(), nl.C, faults, cycles, BISTConfig{TPGRegs: nl.BISTTpg})
	if err != nil {
		t.Fatal(err)
	}
	if all.Lanes != 64 {
		t.Fatalf("default Lanes = %d, want 64", all.Lanes)
	}
	if all.Detected < one.Detected {
		t.Errorf("64-lane session detected %d < single-lane %d", all.Detected, one.Detected)
	}
	for _, out := range []*BISTOutcome{one, all} {
		if want := int64(out.Evaluated) * int64(cycles); out.Passes != want {
			t.Errorf("Lanes=%d: Passes = %d, want %d", out.Lanes, out.Passes, want)
		}
	}
}

// A long session must not hold the good machine's nets for every cycle:
// the fault simulator runs it in blocks of bounded size, so the memory a
// session allocates stays far below the cycles x nets words one whole
// trace would take.
func TestRunBISTLongSessionBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("long session")
	}
	nl := buildBISTNetlist(t)
	const faults, cycles = 8, 50000
	trace := uint64(cycles) * uint64(len(nl.C.Gates)+2) * 8
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	out, err := RunBISTCfgCtx(context.Background(), nl.C, faults, cycles, BISTConfig{TPGRegs: nl.BISTTpg})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if out.Status != exec.StatusComplete || out.Evaluated != out.TotalFaults {
		t.Fatalf("session evaluated %d of %d faults, status %v", out.Evaluated, out.TotalFaults, out.Status)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > trace/4 {
		t.Errorf("a %d-cycle session allocated %d bytes, want at most a quarter of the %d-byte whole trace", cycles, got, trace)
	}
}

// Property: a packed 64-lane simulation is bit-identical to 64 separate
// single-lane simulations — the invariant PPSFP rests on. Each lane of
// the packed run is extracted, re-widened and replayed on a fresh Sim.
func TestPackedLanesMatchSingleLaneRuns(t *testing.T) {
	nl := buildBISTNetlist(t)
	c := nl.C
	bistEn := -1
	for i, id := range c.Inputs {
		if c.Gates[id].Name == "bist_en" {
			bistEn = i
		}
	}
	const cycles = 24
	vec := sessionVectors(cycles, len(c.Inputs), 64, defaultBISTSeed, bistEn)
	p, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	packed := runOutputs(p, vec)
	for lane := 0; lane < 64; lane++ {
		seq := extractLane(vec, lane)
		single := runOutputs(p, widenLane(seq))
		for tt := range packed {
			for k := range packed[tt] {
				if (packed[tt][k]>>uint(lane))&1 != single[tt][k]&1 {
					t.Fatalf("lane %d cycle %d output %d: packed and single-lane runs differ", lane, tt, k)
				}
			}
		}
	}
}

// runOutputs applies vectors to p from reset and returns a copy of the
// primary outputs of every cycle.
func runOutputs(p *gates.Program, vectors [][]uint64) [][]uint64 {
	sim := logicsim.New(p)
	out := make([][]uint64, len(vectors))
	for t, v := range vectors {
		out[t] = append([]uint64(nil), sim.Step(v)...)
	}
	return out
}

// extractLane and widenLane must be exact inverses over every lane.
func TestExtractWidenRoundTrip(t *testing.T) {
	vec := sessionVectors(8, 5, 64, 12345, -1)
	for _, lane := range []int{0, 1, 31, 63} {
		seq := extractLane(vec, lane)
		wide := widenLane(seq)
		for _, l2 := range []int{0, 17, 63} {
			back := extractLane(wide, l2)
			for tt := range seq {
				for i := range seq[tt] {
					if back[tt][i] != seq[tt][i] {
						t.Fatalf("round trip broke: lane %d via %d", lane, l2)
					}
				}
			}
		}
	}
}

// Fault simulation must be bit-identical at every worker count (run with
// -race this also exercises the partitioned update for data races).
func TestFaultSimWorkerEquivalenceOnBIST(t *testing.T) {
	nl := buildBISTNetlist(t)
	c := nl.C
	bistEn := -1
	for i, id := range c.Inputs {
		if c.Gates[id].Name == "bist_en" {
			bistEn = i
		}
	}
	vec := sessionVectors(16, len(c.Inputs), 64, defaultBISTSeed, bistEn)
	flist := fault.Sample(fault.Collapse(c), 80)
	run := func(workers int) ([]bool, []int, int) {
		detected := make([]bool, len(flist))
		cycles := make([]int, len(flist))
		for i := range cycles {
			cycles[i] = -1
		}
		n, err := logicsim.FaultSimIncrementalWorkers(c, flist, detected, cycles, vec, 0, workers)
		if err != nil {
			t.Fatal(err)
		}
		return detected, cycles, n
	}
	seqDet, seqCyc, seqN := run(1)
	parDet, parCyc, parN := run(8)
	if seqN != parN {
		t.Fatalf("detected count differs: %d vs %d", seqN, parN)
	}
	for i := range flist {
		if seqDet[i] != parDet[i] || seqCyc[i] != parCyc[i] {
			t.Fatalf("fault %d: workers=1 (%v,%d) vs workers=8 (%v,%d)",
				i, seqDet[i], seqCyc[i], parDet[i], parCyc[i])
		}
	}
}
