// Package flow is the one test-design pipeline: synthesize, select scan
// registers, generate the netlist, size the ATPG window and run ATPG,
// then optionally select BIST registers, generate the BIST netlist and
// run the session. hltsd's /v1/testdesign job, `hlts -atpg` and the
// experiment tables' cells all call Run, and every campaign goes through
// Campaign, the one place the time-frame window is sized.
package flow

import (
	"context"

	"repro/internal/atpg"
	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/rtl"
	"repro/internal/scan"
)

// Spec is one test-design run. Params.Width is every netlist's width,
// Scan the number of scan registers to select (0 = none), TestMode makes
// the control lines primary inputs, and a nil BIST skips the self-test
// stage.
type Spec struct {
	Method   string
	Graph    *dfg.Graph
	Params   core.Params
	Scan     int
	TestMode bool
	ATPG     atpg.Config
	BIST     *BIST
}

// BIST configures the self-test stage: how many pattern-generator and
// signature registers to select, the session length, the fault sample
// and the sessions per simulation pass.
type BIST struct {
	TPG, MISR, Cycles, Faults, Lanes int
}

// Outcome is every stage's result. ScanRegs and ScanTrajectory (mean
// testability with the first i registers scanned) are nil at Scan 0;
// TPG, MISR and BIST are nil without a BIST stage.
type Outcome struct {
	Synth          *core.Result
	ScanRegs       []int
	ScanTrajectory []float64
	Netlist        *rtl.Netlist
	ATPG           *atpg.Result
	TPG, MISR      []int
	BIST           *atpg.BISTOutcome
}

// Run executes the pipeline. A deadline degrades each stage to its
// best-so-far result marked partial; an error means a stage failed.
func Run(ctx context.Context, s Spec) (*Outcome, error) {
	res, err := core.RunCtx(ctx, s.Method, s.Graph, s.Params)
	if err != nil {
		return nil, err
	}
	o := &Outcome{Synth: res}
	if s.Scan > 0 {
		o.ScanRegs, o.ScanTrajectory = ScanRegisters(res, s.Scan)
	}
	width := s.Params.Width
	if o.Netlist, err = Netlist(res, width, s.TestMode, o.ScanRegs); err != nil {
		return nil, err
	}
	if o.ATPG, err = Campaign(ctx, o.Netlist, s.ATPG); err != nil {
		return nil, err
	}
	if b := s.BIST; b != nil {
		o.TPG, o.MISR = scan.SelectBIST(res.Design, res.Metrics, b.TPG, b.MISR)
		bn, err := rtl.GenerateBIST(res.Design, width, rtl.NormalMode, o.TPG, o.MISR)
		if err == nil {
			o.BIST, err = atpg.RunBISTCfgCtx(ctx, bn.C, b.Faults, b.Cycles,
				atpg.BISTConfig{Lanes: b.Lanes, TPGRegs: bn.BISTTpg})
		}
		if err != nil {
			return nil, err
		}
	}
	return o, nil
}

// ScanRegisters selects up to max scan registers (scan.Select) and the
// mean-testability trajectory, index 0 being no scan.
func ScanRegisters(r *core.Result, max int) ([]int, []float64) {
	sel := scan.Select(r.Design, max, 1e-9)
	return sel.Regs, sel.MeanTestability
}

// Netlist generates r's gate-level netlist with a scan chain through
// scanRegs, in test mode or with the FSM controller.
func Netlist(r *core.Result, width int, testMode bool, scanRegs []int) (*rtl.Netlist, error) {
	mode := rtl.NormalMode
	if testMode {
		mode = rtl.TestMode
	}
	return rtl.GenerateWithScan(r.Design, width, mode, scanRegs)
}

// Campaign runs ATPG on nl with MaxFrames widened by the window rule,
// nl.ATPGFrames: at least two full passes of the schedule.
func Campaign(ctx context.Context, nl *rtl.Netlist, cfg atpg.Config) (*atpg.Result, error) {
	cfg.MaxFrames = nl.ATPGFrames(cfg.MaxFrames)
	return atpg.RunCtx(ctx, nl.C, cfg)
}
