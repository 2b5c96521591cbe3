package atpg

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/gates"
	"repro/internal/logicsim"
)

// Sentinel errors of the BIST evaluator. Both are wrapped with context by
// the returning functions; match with errors.Is.
var (
	// ErrBISTCycles rejects sessions with a non-positive cycle count.
	ErrBISTCycles = errors.New("atpg: BIST session needs at least one cycle")
	// ErrDuplicateBISTEnable rejects circuits declaring bist_en more than
	// once: the evaluator forces that input high, and with two claimants
	// the choice of which (and whether the other floats random) would be
	// silent and order-dependent.
	ErrDuplicateBISTEnable = errors.New("atpg: circuit declares multiple bist_en inputs")
)

// BISTConfig tunes a BIST session.
type BISTConfig struct {
	// Lanes is the number of independent pseudorandom sessions packed into
	// the simulator's 64 pattern lanes, 1..64; 0 means 64. One lane
	// reproduces the historical single-session evaluator bit for bit.
	Lanes int
	// Seed seeds lane 0's stimulus stream (0 means the historical default);
	// lanes 1.. derive distinct streams from it via SplitMix64.
	Seed uint64
	// TPGRegs lists the register ids of the TPG LFSRs (rtl.Netlist.BISTTpg).
	// When set, lanes 1.. additionally start each TPG at a distinct
	// SplitMix64-derived state, de-phasing the on-chip pattern sequences
	// across sessions; lane 0 keeps the all-zero hardware reset state.
	TPGRegs []int
}

// BISTOutcome reports a built-in self-test session.
type BISTOutcome struct {
	TotalFaults int
	Detected    int
	Coverage    float64
	Cycles      int
	// Lanes is the number of parallel pseudorandom sessions each fault was
	// checked against (a fault counts as detected when ANY session's
	// signature diverges).
	Lanes int

	// Evaluated counts the faults actually simulated; it equals
	// TotalFaults on a complete session and falls short when the context
	// died mid-session. Coverage is always Detected/TotalFaults, so a
	// partial session under-reports coverage rather than extrapolating.
	Evaluated int
	// Passes counts the nominal faulty-machine simulation passes spent:
	// Evaluated×Cycles, each as if the whole netlist were re-evaluated.
	// Passes/(Evaluated×Lanes) is the simulation cost per pseudorandom
	// session — the quantity PPSFP divides by the lane count.
	Passes int64
	// GateEvals counts the gate evaluations actually performed: the good
	// session once, plus each faulty session's gates that read a net where
	// it differs from the good one.
	GateEvals int64
	// Status is StatusComplete for a full session, StatusPartial when the
	// budget named by Exhausted cut it short.
	Status exec.Status
	// Exhausted names the exhausted budget ("" when complete).
	Exhausted string
}

// String renders the outcome.
func (r *BISTOutcome) String() string {
	s := fmt.Sprintf("BIST coverage %.2f%% (%d/%d faults) in %d cycles x %d lanes",
		100*r.Coverage, r.Detected, r.TotalFaults, r.Cycles, r.Lanes)
	if r.Status == exec.StatusPartial {
		s += fmt.Sprintf(" (partial: %s exhausted after %d faults)", r.Exhausted, r.Evaluated)
	}
	return s
}

// RunBISTCfgCtx evaluates a netlist generated by rtl.GenerateBIST: the
// circuit free-runs for the given number of cycles with bist_en asserted
// (the TPG registers generate patterns, the MISR registers compact
// responses), and a fault counts as detected when its final signature
// differs from the good machine's in any lane. All 64 simulator lanes
// carry independent pseudorandom sessions (the PPSFP transform), so one
// pass over the fault list prices 64 sessions; cfg.Lanes: 1 gives the
// historical single-session semantics. Primary data inputs are driven
// pseudorandomly per lane, modelling the boundary-scan wrapper the BIST
// literature assumes around the chip pins; every stream is seeded
// deterministically so sessions reproduce. Aliasing — a faulty run
// landing on the good signature — shows up naturally as lost coverage,
// exactly as in hardware.
//
// The context is checked before every fault's session: on
// cancellation the outcome covers the faults evaluated so far and is
// tagged StatusPartial, mirroring the graceful degradation of the ATPG
// campaign — a deadline is a budget, not a failure, so the error stays nil.
func RunBISTCfgCtx(ctx context.Context, c *gates.Circuit, sampleFaults, cycles int, cfg BISTConfig) (*BISTOutcome, error) {
	if cycles < 1 {
		return nil, fmt.Errorf("%w (got %d)", ErrBISTCycles, cycles)
	}
	lanes := cfg.Lanes
	if lanes == 0 {
		lanes = 64
	}
	if lanes < 1 || lanes > 64 {
		return nil, fmt.Errorf("atpg: BIST lanes must be 1..64, got %d", cfg.Lanes)
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = defaultBISTSeed
	}
	bistEn := -1
	for i, id := range c.Inputs {
		if c.Gates[id].Name == "bist_en" {
			if bistEn >= 0 {
				return nil, fmt.Errorf("%w (inputs %d and %d)", ErrDuplicateBISTEnable, bistEn, i)
			}
			bistEn = i
		}
	}
	if bistEn < 0 {
		return nil, fmt.Errorf("atpg: circuit has no bist_en input (generate with rtl.GenerateBIST)")
	}
	var sigPOs []int
	for i, name := range c.OutputNames {
		if strings.HasPrefix(name, "sig_") {
			sigPOs = append(sigPOs, i)
		}
	}
	if len(sigPOs) == 0 {
		return nil, fmt.Errorf("atpg: circuit exposes no signature outputs")
	}

	// Stimulus: `lanes` independent per-lane PI streams, bist_en forced
	// high everywhere. Lane 0 replays the historical session (legacy seed
	// stream, all-zero register reset), so detection at Lanes: 1 is
	// bit-identical to the original evaluator and the detections of a
	// wider session are a superset of lane 0's.
	vec := sessionVectors(cycles, len(c.Inputs), lanes, seed, bistEn)
	seedState := tpgSeedState(c, cfg.TPGRegs, lanes, seed)
	mask := ^uint64(0)
	if lanes < 64 {
		mask = (uint64(1) << uint(lanes)) - 1
	}

	// Every session runs to the end: a MISR can alias a difference away, so
	// only the final signature counts.
	p, err := c.Compile()
	if err != nil {
		return nil, err
	}
	tr := logicsim.NewTrace(p, seedState, vec)
	flist := fault.Sample(fault.Collapse(c), sampleFaults)
	out := &BISTOutcome{TotalFaults: len(flist), Cycles: cycles, Lanes: lanes}
	evals, err := tr.Simulate(ctx, flist, nil, 1, logicsim.Observe{POs: sigPOs, Mask: mask, Session: true},
		func(_, cycle int, _ uint64) {
			out.Evaluated++
			if cycle >= 0 {
				out.Detected++
			}
		})
	if err != nil {
		if ctx.Err() == nil || !errors.Is(err, ctx.Err()) {
			return nil, err
		}
		out.Status = exec.StatusPartial
		out.Exhausted = exec.BudgetDeadline
	}
	out.Passes = int64(out.Evaluated) * int64(cycles)
	out.GateEvals = evals
	if out.TotalFaults > 0 {
		out.Coverage = float64(out.Detected) / float64(out.TotalFaults)
	}
	return out, nil
}

// tpgSeedState builds the full-length DFF state (logicsim.Sim.SetState
// order) loading each listed TPG register with per-lane LFSR start
// states. Registers are located by their DFF bit names "r<id>[<bit>]";
// ids without matching DFFs are ignored (the register may have been
// optimised away). With lanes <= 1 or no registers the state is all
// zeros — the hardware reset.
func tpgSeedState(c *gates.Circuit, tpgRegs []int, lanes int, seed uint64) []uint64 {
	state := make([]uint64, len(c.DFFs))
	if lanes <= 1 || len(tpgRegs) == 0 {
		return state
	}
	ix := make(map[string]int, len(c.DFFs))
	for i, id := range c.DFFs {
		ix[c.Gates[id].Name] = i
	}
	for _, reg := range tpgRegs {
		var slots []int
		for b := 0; ; b++ {
			i, ok := ix[fmt.Sprintf("r%d[%d]", reg, b)]
			if !ok {
				break
			}
			slots = append(slots, i)
		}
		if len(slots) == 0 {
			continue
		}
		// Vary the seed per register so same-width TPGs don't start in
		// lockstep within a lane.
		words := gates.LFSRSeedWords(len(slots), lanes, seed^uint64(reg+1)*0x9E3779B97F4A7C15)
		for b, i := range slots {
			state[i] = words[b]
		}
	}
	return state
}
