package logicsim_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dfg"
	"repro/internal/dfggen"
	"repro/internal/fault"
	"repro/internal/gates"
	"repro/internal/logicsim"
)

// refFaultSim is the serial-fault loop the divergence-only kernel
// replaced, on the reference evaluator: the good machine runs once from
// state, then every fault resimulates the whole circuit from state, cycle
// by cycle, and compares the observed outputs with the good machine's.
// It returns each fault's detecting cycle and differing lanes, -1 and 0
// when undetected.
func refFaultSim(t *testing.T, c *gates.Circuit, flist []fault.Fault, state []uint64, vectors [][]uint64, obs logicsim.Observe) ([]int, []uint64) {
	t.Helper()
	good := newRefSim(t, c)
	copy(good.state, state)
	golden := make([][]uint64, len(vectors))
	for tt, v := range vectors {
		golden[tt] = append([]uint64(nil), good.step(v)...)
	}
	pos, mask := obs.POs, obs.Mask
	if pos == nil {
		for k := range c.Outputs {
			pos = append(pos, k)
		}
	}
	if mask == 0 {
		mask = ^uint64(0)
	}
	cycles, diffs := make([]int, len(flist)), make([]uint64, len(flist))
	bad := newRefSim(t, c)
	for i := range flist {
		bad.fault = &flist[i]
		copy(bad.state, state)
		cycles[i] = -1
		for tt, v := range vectors {
			po := bad.step(v)
			if obs.Session && tt < len(vectors)-1 {
				continue
			}
			var d uint64
			for _, k := range pos {
				d |= po[k] ^ golden[tt][k]
			}
			if d &= mask; d != 0 {
				cycles[i], diffs[i] = tt, d
				break
			}
		}
	}
	return cycles, diffs
}

// kernelFaultSim runs Trace.Simulate over every fault of flist at the
// given worker count, in blocks of per cycles (0: the default size), and
// returns what refFaultSim returns plus the evaluation count.
func kernelFaultSim(t *testing.T, c *gates.Circuit, flist []fault.Fault, state []uint64, vectors [][]uint64, obs logicsim.Observe, workers, per int) ([]int, []uint64, int64) {
	t.Helper()
	p, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	cycles, diffs := make([]int, len(flist)), make([]uint64, len(flist))
	evals, err := logicsim.NewTrace(p, state, vectors).WithBlockCycles(per).Simulate(context.Background(), flist, nil, workers, obs,
		func(i, cycle int, diff uint64) { cycles[i], diffs[i] = cycle, diff })
	if err != nil {
		t.Fatal(err)
	}
	return cycles, diffs, evals
}

// checkFaultSim compares the kernel with the reference on one
// configuration, at one and three workers, and in one block and in blocks
// of three cycles, whose flip-flops carry from block to block.
func checkFaultSim(t *testing.T, name string, c *gates.Circuit, flist []fault.Fault, state []uint64, vectors [][]uint64, obs logicsim.Observe) {
	t.Helper()
	wantCycle, wantDiff := refFaultSim(t, c, flist, state, vectors, obs)
	gotCycle, gotDiff, evals := kernelFaultSim(t, c, flist, state, vectors, obs, 1, 0)
	for i := range flist {
		if gotCycle[i] != wantCycle[i] || gotDiff[i] != wantDiff[i] {
			t.Fatalf("%s, fault %v: kernel detects at cycle %d lanes %#x, reference at cycle %d lanes %#x",
				name, flist[i], gotCycle[i], gotDiff[i], wantCycle[i], wantDiff[i])
		}
	}
	for _, run := range []struct {
		what         string
		workers, per int
	}{{"3 workers", 3, 0}, {"3-cycle blocks", 1, 3}, {"3 workers, 3-cycle blocks", 3, 3}} {
		cycle, diff, n := kernelFaultSim(t, c, flist, state, vectors, obs, run.workers, run.per)
		for i := range flist {
			if cycle[i] != gotCycle[i] || diff[i] != gotDiff[i] {
				t.Fatalf("%s, fault %v: %s give cycle %d lanes %#x, 1 worker in one block cycle %d lanes %#x",
					name, flist[i], run.what, cycle[i], diff[i], gotCycle[i], gotDiff[i])
			}
		}
		if n != evals {
			t.Fatalf("%s: %d evaluations in %s, %d by 1 worker in one block", name, n, run.what, evals)
		}
	}
}

// faultSimConfigs are the observation modes of the differential suite:
// the random phase's and fault drop's (every output, every lane, first
// difference) and BIST's (the final cycle only, on one lane or all 64),
// each from the reset state or a seeded flip-flop state, as BIST's TPG
// seeding loads.
var faultSimConfigs = []struct {
	name    string
	session bool
	mask    uint64
	seeded  bool
}{
	{"first/lanes=64/reset", false, 0, false},
	{"first/lanes=1/seeded", false, 1, true},
	{"session/lanes=1/reset", true, 1, false},
	{"session/lanes=64/seeded", true, 0, true},
}

// sigOutputs returns the indices of a BIST netlist's signature outputs,
// nil for any other netlist.
func sigOutputs(c *gates.Circuit) []int {
	var pos []int
	for k, name := range c.OutputNames {
		if len(name) > 4 && name[:4] == "sig_" {
			pos = append(pos, k)
		}
	}
	return pos
}

// TestFaultSimMatchesReference is the differential test of the fault
// simulator: on the paper's designs at 4 and 8 bits (normal and BIST
// netlists), on pinned gen: specs and on random circuits carrying every
// fault kind, under every observation mode of faultSimConfigs and several
// stimulus seeds, the kernel's detecting cycle and lane mask equal the
// full-resimulation reference's for every fault, and its results and
// evaluation count do not depend on the worker count. BIST netlists are
// observed on their signature outputs in session mode, as RunBISTCfgCtx
// does. Under -short and the race detector the paper's designs shrink to
// Ex and Dct at 4 bits.
func TestFaultSimMatchesReference(t *testing.T) {
	type subject struct {
		name   string
		c      *gates.Circuit
		faults []fault.Fault
	}
	var subjects []subject
	for seed := int64(1); seed <= 6; seed++ {
		c := randomCircuit(t, seed)
		subjects = append(subjects, subject{fmt.Sprintf("random-%d", seed), c, fault.Enumerate(c)})
	}
	type design struct {
		name  string
		width int
	}
	var designs []design
	for _, w := range []int{4, 8} {
		for _, name := range []string{dfg.BenchEx, dfg.BenchDct, dfg.BenchDiffeq, dfg.BenchEWF} {
			designs = append(designs, design{name, w})
		}
	}
	for _, spec := range []dfggen.Spec{
		{Seed: 2003, Ops: 12, Mix: "logic", Shape: "mesh", Fanout: 3},
		{Seed: 2005, Ops: 15, Mix: "mixed", Shape: "deep", Loop: true},
		{Seed: 2007, Ops: 16, Mix: "mixed", Shape: "mesh", Fanout: 4, Cond: true},
	} {
		designs = append(designs, design{spec.Name(), 4})
	}
	sample := 150
	if testing.Short() || raceEnabled {
		designs = designs[:2]
		sample = 16
	}
	for _, d := range designs {
		for k, c := range paperNetlists(t, d.name, d.width) {
			kind := []string{"normal", "bist"}[k]
			subjects = append(subjects, subject{fmt.Sprintf("%s-%d/%s", d.name, d.width, kind), c, fault.Sample(fault.Collapse(c), sample)})
		}
	}
	for _, sub := range subjects {
		sub := sub
		t.Run(sub.name, func(t *testing.T) {
			t.Parallel()
			c := sub.c
			sig := sigOutputs(c)
			for ci, cfg := range faultSimConfigs {
				for seed := int64(1); seed <= 2; seed++ {
					rng := rand.New(rand.NewSource(seed*31 + int64(ci)))
					vectors := randomWords(rng, 16, len(c.Inputs))
					state := make([]uint64, len(c.DFFs))
					if cfg.seeded {
						state = randomWords(rng, 1, len(c.DFFs))[0]
					}
					obs := logicsim.Observe{Mask: cfg.mask, Session: cfg.session}
					if cfg.session {
						obs.POs = sig
					}
					checkFaultSim(t, fmt.Sprintf("%s/seed=%d", cfg.name, seed), c, sub.faults, state, vectors, obs)
				}
			}
		})
	}
}

// TestRandomCircuitsCarryEveryFaultKind guards the differential suite's
// reach: the random circuits' enumerated faults include output faults on
// combinational gates, primary inputs, constants and flip-flops (Q), and
// pin faults on combinational gates and flip-flops (D).
func TestRandomCircuitsCarryEveryFaultKind(t *testing.T) {
	seen := map[string]bool{}
	for seed := int64(1); seed <= 6; seed++ {
		c := randomCircuit(t, seed)
		for _, f := range fault.Enumerate(c) {
			seen[faultKind(c, f)] = true
		}
	}
	for _, k := range []string{"gate/out", "gate/pin", "input/out", "const/out", "dff/out", "dff/pin"} {
		if !seen[k] {
			t.Errorf("no %s fault in the random circuits", k)
		}
	}
}

// faultKind names f's site: the gate class and whether the output or an
// input pin is stuck.
func faultKind(c *gates.Circuit, f fault.Fault) string {
	class := "gate"
	switch c.Gates[f.Gate].Kind {
	case gates.KInput:
		class = "input"
	case gates.KConst0, gates.KConst1:
		class = "const"
	case gates.KDFF:
		class = "dff"
	}
	if f.Pin < 0 {
		return class + "/out"
	}
	return class + "/pin"
}

// FuzzFaultSim compares the kernel with the reference on a random circuit
// of the fuzzed seed, under every one of its enumerated faults, with
// fuzzed stimulus, flip-flop state, cycle count, lane mask and mode.
func FuzzFaultSim(f *testing.F) {
	f.Add(int64(1), uint64(0), uint8(12), uint64(0), false)
	f.Add(int64(2), uint64(7), uint8(16), uint64(1), true)
	f.Add(int64(3), uint64(99), uint8(1), uint64(0x8000000000000001), false)
	f.Add(int64(4), uint64(5), uint8(24), uint64(0), true)
	f.Fuzz(func(t *testing.T, seed int64, stim uint64, cycles uint8, mask uint64, session bool) {
		c := randomCircuit(t, seed)
		rng := rand.New(rand.NewSource(int64(stim)))
		vectors := randomWords(rng, 1+int(cycles%32), len(c.Inputs))
		state := make([]uint64, len(c.DFFs))
		if stim&1 != 0 {
			state = randomWords(rng, 1, len(c.DFFs))[0]
		}
		obs := logicsim.Observe{Mask: mask, Session: session}
		if stim&2 != 0 {
			obs.POs = []int{int(stim>>2) % len(c.Outputs)}
		}
		checkFaultSim(t, "fuzz", c, fault.Enumerate(c), state, vectors, obs)
	})
}
