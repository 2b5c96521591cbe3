package scan

import (
	"context"
	"testing"

	"repro/internal/atpg"
	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/etpn"
	"repro/internal/rtl"
	"repro/internal/testability"
)

func synth(t *testing.T, bench string, width int) *etpn.Design {
	t.Helper()
	g, err := dfg.ByName(bench, width)
	if err != nil {
		t.Fatal(err)
	}
	par := core.DefaultParams(width)
	if bench == dfg.BenchDiffeq || bench == dfg.BenchPaulin {
		par.LoopSignal = "exit"
	}
	r, err := core.SynthesizeCtx(context.Background(), g, par)
	if err != nil {
		t.Fatal(err)
	}
	return r.Design
}

func TestSelectImprovesMeanTestability(t *testing.T) {
	d := synth(t, dfg.BenchDiffeq, 8)
	cfg := testability.DefaultConfig()
	sel := Select(d, cfg, 3, 1e-6)
	if len(sel.Regs) == 0 {
		t.Fatal("no scan registers selected")
	}
	if len(sel.MeanTestability) != len(sel.Regs)+1 {
		t.Fatalf("trajectory length %d for %d registers", len(sel.MeanTestability), len(sel.Regs))
	}
	for i := 1; i < len(sel.MeanTestability); i++ {
		if sel.MeanTestability[i] <= sel.MeanTestability[i-1] {
			t.Errorf("step %d did not improve: %f -> %f", i, sel.MeanTestability[i-1], sel.MeanTestability[i])
		}
	}
	// Selected registers must be distinct and valid.
	seen := map[int]bool{}
	for _, r := range sel.Regs {
		if r < 0 || r >= d.Alloc.NumRegs() || seen[r] {
			t.Fatalf("bad selection %v", sel.Regs)
		}
		seen[r] = true
	}
}

func TestSelectStopsWhenNoGain(t *testing.T) {
	d := synth(t, dfg.BenchTseng, 4)
	cfg := testability.DefaultConfig()
	// An absurd minimum gain stops selection immediately.
	sel := Select(d, cfg, 5, 10.0)
	if len(sel.Regs) != 0 {
		t.Errorf("selected %v despite impossible gain threshold", sel.Regs)
	}
}

func TestScanChainNetlist(t *testing.T) {
	d := synth(t, dfg.BenchTseng, 4)
	sel := Select(d, testability.DefaultConfig(), 2, 1e-9)
	if len(sel.Regs) == 0 {
		t.Skip("no beneficial scan registers on this design")
	}
	nl, err := rtl.GenerateWithScan(d, 4, rtl.NormalMode, sel.Regs)
	if err != nil {
		t.Fatal(err)
	}
	if len(nl.ScanRegs) != len(sel.Regs) {
		t.Fatalf("netlist records %d scan regs, want %d", len(nl.ScanRegs), len(sel.Regs))
	}
	// scan_en and scan_in must be PIs; scan_out a PO.
	foundEn, foundIn, foundOut := false, false, false
	for _, id := range nl.C.Inputs {
		switch nl.C.Gates[id].Name {
		case "scan_en":
			foundEn = true
		case "scan_in":
			foundIn = true
		}
	}
	for _, name := range nl.C.OutputNames {
		if name == "scan_out" {
			foundOut = true
		}
	}
	if !foundEn || !foundIn || !foundOut {
		t.Fatalf("scan ports missing: en=%v in=%v out=%v", foundEn, foundIn, foundOut)
	}

	// Functional behaviour with scan_en low must be unchanged.
	g := d.G
	in := map[string]uint64{"a": 3, "b": 5, "c": 7}
	want, err := g.Interpret(4, in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := nl.SimulatePass(in)
	if err != nil {
		t.Fatal(err)
	}
	for k, w := range want {
		if got[k] != w {
			t.Fatalf("scan netlist broke function: %s = %d, want %d", k, got[k], w)
		}
	}
}

func TestScanImprovesCoverage(t *testing.T) {
	d := synth(t, dfg.BenchDiffeq, 4)
	cfg := atpg.DefaultConfig(5)
	cfg.SampleFaults = 400
	cfg.RandomBatches = 2
	cfg.Restarts = 0
	cfg.MaxFrames = 4

	plain, err := rtl.Generate(d, 4, rtl.NormalMode)
	if err != nil {
		t.Fatal(err)
	}
	basRes, err := atpg.RunCtx(context.Background(), plain.C, cfg)
	if err != nil {
		t.Fatal(err)
	}

	sel := Select(d, testability.DefaultConfig(), 3, 1e-9)
	if len(sel.Regs) == 0 {
		t.Skip("nothing to scan")
	}
	scanned, err := rtl.GenerateWithScan(d, 4, rtl.NormalMode, sel.Regs)
	if err != nil {
		t.Fatal(err)
	}
	scanRes, err := atpg.RunCtx(context.Background(), scanned.C, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("coverage without scan %.2f%%, with %d scan regs %.2f%%",
		100*basRes.Coverage, len(sel.Regs), 100*scanRes.Coverage)
	// Partial scan must not lose coverage; typically it gains several
	// points on this looped benchmark.
	if scanRes.Coverage < basRes.Coverage-0.02 {
		t.Errorf("scan reduced coverage: %.3f -> %.3f", basRes.Coverage, scanRes.Coverage)
	}
}

func TestGenerateWithScanRejectsBadRegs(t *testing.T) {
	d := synth(t, dfg.BenchTseng, 4)
	if _, err := rtl.GenerateWithScan(d, 4, rtl.NormalMode, []int{99}); err == nil {
		t.Error("expected out-of-range error")
	}
	if _, err := rtl.GenerateWithScan(d, 4, rtl.NormalMode, []int{0, 0}); err == nil {
		t.Error("expected duplicate error")
	}
}

func TestSelectBIST(t *testing.T) {
	d := synth(t, dfg.BenchDiffeq, 4)
	m := testability.Analyze(d, testability.DefaultConfig())
	tpg, misr := SelectBIST(d, m, 2, 2)
	if len(tpg) == 0 || len(misr) == 0 {
		t.Fatalf("BIST selection empty: tpg=%v misr=%v", tpg, misr)
	}
	seen := map[int]bool{}
	for _, r := range append(append([]int{}, tpg...), misr...) {
		if seen[r] {
			t.Fatalf("register %d in both BIST sets", r)
		}
		seen[r] = true
		if r < 0 || r >= d.Alloc.NumRegs() {
			t.Fatalf("register %d out of range", r)
		}
	}
}

func TestBISTSessionDetectsFaults(t *testing.T) {
	d := synth(t, dfg.BenchDiffeq, 4)
	m := testability.Analyze(d, testability.DefaultConfig())
	tpg, misr := SelectBIST(d, m, 2, 2)
	nl, err := rtl.GenerateBIST(d, 4, rtl.NormalMode, tpg, misr)
	if err != nil {
		t.Fatal(err)
	}
	out, err := atpg.RunBISTCfgCtx(context.Background(), nl.C, 400, 120, atpg.BISTConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s", out)
	if out.Coverage < 0.3 {
		t.Errorf("BIST coverage %.2f unreasonably low", out.Coverage)
	}
	if out.Detected > out.TotalFaults {
		t.Errorf("inconsistent outcome %+v", out)
	}
}

func TestRunBISTRequiresBISTNetlist(t *testing.T) {
	d := synth(t, dfg.BenchTseng, 4)
	nl, err := rtl.Generate(d, 4, rtl.NormalMode)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := atpg.RunBISTCfgCtx(context.Background(), nl.C, 100, 50, atpg.BISTConfig{}); err == nil {
		t.Error("expected missing-bist_en error")
	}
}
