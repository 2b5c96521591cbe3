package atpg

import (
	"context"
	"errors"
	"testing"

	"repro/internal/alloc"
	"repro/internal/dfg"
	"repro/internal/etpn"
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

// legacyBIST reimplements the original single-session evaluator verbatim
// (one shared xorshift stream replicated to all lanes, golden history via
// Run, bit-0 signature compare): the reference for the Lanes: 1
// bit-identity guarantee.
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
	golden := logicsim.New(p).Run(vec)
	goodSig := make([]uint64, len(sigPOs))
	for i, po := range sigPOs {
		goodSig[i] = golden[cycles-1][po] & 1
	}
	flist := fault.Sample(fault.Collapse(c), sampleFaults)
	bad := logicsim.New(p)
	det := make([]bool, len(flist))
	for i := range flist {
		bad.SetFault(&flist[i])
		bad.Reset()
		var last []uint64
		for _, v := range vec {
			last = bad.Step(v)
		}
		for k, po := range sigPOs {
			if last[po]&1 != goodSig[k] {
				det[i] = true
				break
			}
		}
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
	packed := logicsim.New(p).Run(vec)
	laneSim := logicsim.New(p)
	for lane := 0; lane < 64; lane++ {
		seq := extractLane(vec, lane)
		single := laneSim.Run(widenLane(seq))
		for tt := range packed {
			for k := range packed[tt] {
				if (packed[tt][k]>>uint(lane))&1 != single[tt][k]&1 {
					t.Fatalf("lane %d cycle %d output %d: packed and single-lane runs differ", lane, tt, k)
				}
			}
		}
	}
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
