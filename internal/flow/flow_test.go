package flow

import (
	"context"
	"testing"

	"repro/internal/atpg"
	"repro/internal/core"
	"repro/internal/dfg"
)

// TestRunStages: scan selection runs only when asked for and the BIST
// stage only with a BIST spec, and the outcome carries each stage's
// result.
func TestRunStages(t *testing.T) {
	g, err := dfg.ByName(dfg.BenchEx, 4)
	if err != nil {
		t.Fatal(err)
	}
	par := core.DefaultParams(4)
	par.LoopSignal = g.Loop
	acfg := atpg.DefaultConfig(1)
	acfg.SampleFaults = 60
	spec := Spec{Method: core.MethodOurs, Graph: g, Params: par, ATPG: acfg}

	o, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if o.ScanRegs != nil || o.ScanTrajectory != nil || o.BIST != nil || o.TPG != nil || o.MISR != nil {
		t.Errorf("plain run ran a scan or BIST stage: %+v", o)
	}
	if len(o.Netlist.ScanRegs) != 0 || o.ATPG.TotalFaults != 60 {
		t.Errorf("plain run: scan chain %v, %d faults", o.Netlist.ScanRegs, o.ATPG.TotalFaults)
	}

	spec.Scan = 2
	spec.BIST = &BIST{TPG: 1, MISR: 1, Cycles: 20, Faults: 40, Lanes: 64}
	o, err = Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(o.ScanRegs) == 0 || len(o.ScanTrajectory) != len(o.ScanRegs)+1 {
		t.Errorf("scan registers %v with trajectory %v", o.ScanRegs, o.ScanTrajectory)
	}
	if len(o.Netlist.ScanRegs) != len(o.ScanRegs) {
		t.Errorf("netlist scans %v, selected %v", o.Netlist.ScanRegs, o.ScanRegs)
	}
	if len(o.TPG) != 1 || len(o.MISR) != 1 || o.BIST == nil || o.BIST.TotalFaults != 40 || o.BIST.Cycles != 20 {
		t.Errorf("BIST stage: tpg %v, misr %v, outcome %+v", o.TPG, o.MISR, o.BIST)
	}
}
