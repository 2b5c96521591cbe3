package rtl

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/gates"
	"repro/internal/validate"
)

func expectViolation(t *testing.T, err error, invariant string) {
	t.Helper()
	if err == nil {
		t.Fatalf("corruption not detected; want rtl/%s", invariant)
	}
	ve, ok := validate.As(err)
	if !ok {
		t.Fatalf("untyped error %v; want *validate.Error rtl/%s", err, invariant)
	}
	if ve.Stage != "rtl" || ve.Invariant != invariant {
		t.Fatalf("violation %s/%s (%s); want rtl/%s", ve.Stage, ve.Invariant, ve.Detail, invariant)
	}
}

// Each corruption is applied to a fresh scan netlist of Ex at width 4
// (synthesized with the paper's defaults, chained through its first two
// registers) and must be caught as exactly the invariant it violates.
func TestNetlistCorruptionsDetected(t *testing.T) {
	res, err := core.SynthesizeCtx(context.Background(), dfg.Ex(4), core.DefaultParams(4))
	if err != nil {
		t.Fatal(err)
	}
	d := res.Design
	scanRegs := []int{0}
	if len(d.Alloc.Regs) >= 2 {
		scanRegs = []int{0, 1}
	}
	fresh := func(t *testing.T) *Netlist {
		t.Helper()
		n, err := GenerateWithScan(d, 4, NormalMode, scanRegs)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	t.Run("bus-wiring", func(t *testing.T) {
		n := fresh(t)
		for name := range n.DataIn {
			n.DataIn[name] = gates.Word{len(n.C.Gates)}
			break
		}
		expectViolation(t, n.check(), "bus-wiring")
	})
	t.Run("scan-chain-complete", func(t *testing.T) {
		n := fresh(t)
		n.ScanRegs = append(n.ScanRegs, 99)
		expectViolation(t, n.check(), "scan-chain-complete")
	})
	t.Run("scan-chain-order", func(t *testing.T) {
		if len(scanRegs) < 2 {
			t.Skip("need two scanned registers to misorder the chain")
		}
		n := fresh(t)
		n.ScanRegs[0], n.ScanRegs[1] = n.ScanRegs[1], n.ScanRegs[0]
		expectViolation(t, n.check(), "scan-chain-order")
	})
	t.Run("scan-chain-enable", func(t *testing.T) {
		// Tie every reader of scan_en to 0: the chain is still wired
		// through the scan muxes, but nothing can select it.
		n := fresh(t)
		c := n.C
		tie := len(c.Gates)
		c.Gates = append(c.Gates, &gates.Gate{ID: tie, Kind: gates.KConst0})
		scanEn := -1
		for _, id := range c.Inputs {
			if c.Gates[id].Name == "scan_en" {
				scanEn = id
			}
		}
		rewired := 0
		for _, g := range c.Gates {
			for i, in := range g.In {
				if in == scanEn {
					g.In[i] = tie
					rewired++
				}
			}
		}
		if rewired == 0 {
			t.Fatal("scan_en has no reader")
		}
		expectViolation(t, n.check(), "scan-chain-enable")
	})
	t.Run("scan-ports", func(t *testing.T) {
		n := fresh(t)
		for i, name := range n.C.OutputNames {
			if name == "scan_out" {
				n.C.OutputNames[i] = "not_scan_out"
			}
		}
		expectViolation(t, n.check(), "scan-ports")
	})
}
