// External test package: the checkers are exercised through the real
// synthesis flows (core imports validate, so an in-package test importing
// core would be an import cycle).
package validate_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/etpn"
	"repro/internal/gates"
	"repro/internal/rtl"
	"repro/internal/validate"
)

// freshDesign synthesizes Ex at width 4 with the paper's defaults — a
// known-good artifact each corruption test mutates.
func freshDesign(t *testing.T) *etpn.Design {
	t.Helper()
	g, err := dfg.ByName(dfg.BenchEx, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.SynthesizeCtx(context.Background(), g, core.DefaultParams(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := validate.Design(res.Design); err != nil {
		t.Fatalf("fresh design does not validate: %v", err)
	}
	return res.Design
}

func expectViolation(t *testing.T, err error, stage, invariant string) {
	t.Helper()
	if err == nil {
		t.Fatalf("corruption not detected; want %s/%s", stage, invariant)
	}
	ve, ok := validate.As(err)
	if !ok {
		t.Fatalf("untyped error %v; want *validate.Error %s/%s", err, stage, invariant)
	}
	if ve.Stage != stage || ve.Invariant != invariant {
		t.Fatalf("violation %s/%s (%s); want %s/%s", ve.Stage, ve.Invariant, ve.Detail, stage, invariant)
	}
}

func TestNilArtifacts(t *testing.T) {
	expectViolation(t, validate.Graph(nil), "dfg", "non-nil")
	expectViolation(t, validate.Design(nil), "etpn", "non-nil")
	expectViolation(t, validate.Netlist(nil), "rtl", "non-nil")
}

// Each corruption is applied to a fresh known-good design and must be
// caught as exactly the invariant it violates.
func TestDesignCorruptionsDetected(t *testing.T) {
	t.Run("schedule-total", func(t *testing.T) {
		d := freshDesign(t)
		d.Sched.Step[d.G.Nodes()[0].ID] = 0
		expectViolation(t, validate.Design(d), "etpn", "schedule-total")
	})
	t.Run("schedule-range", func(t *testing.T) {
		d := freshDesign(t)
		d.Sched.Step[d.G.Nodes()[0].ID] = d.Sched.Len + 5
		expectViolation(t, validate.Design(d), "etpn", "schedule-range")
	})
	t.Run("arc-port-out-of-arity", func(t *testing.T) {
		d := freshDesign(t)
		for _, a := range d.Arcs {
			if d.Nodes[a.To].Kind == etpn.KindModule {
				a.ToPort = 99
				break
			}
		}
		expectViolation(t, validate.Design(d), "etpn", "arc-port")
	})
	t.Run("arc-port-on-non-module", func(t *testing.T) {
		d := freshDesign(t)
		for _, a := range d.Arcs {
			if d.Nodes[a.To].Kind != etpn.KindModule {
				a.ToPort = 0
				break
			}
		}
		expectViolation(t, validate.Design(d), "etpn", "arc-port")
	})
	t.Run("arc-step-range", func(t *testing.T) {
		d := freshDesign(t)
		for _, a := range d.Arcs {
			if len(a.Steps) > 0 {
				a.Steps[0] = d.Sched.Len + 2
				break
			}
		}
		expectViolation(t, validate.Design(d), "etpn", "arc-step-range")
	})
	t.Run("ctrl-places", func(t *testing.T) {
		d := freshDesign(t)
		if d.Ctrl == nil {
			t.Skip("design has no control part")
		}
		d.CtrlPlaces = d.CtrlPlaces[:len(d.CtrlPlaces)-1]
		expectViolation(t, validate.Design(d), "etpn", "ctrl-places")
	})
	t.Run("module-ownership", func(t *testing.T) {
		d := freshDesign(t)
		if len(d.Alloc.Modules) < 2 {
			t.Skip("allocation has a single module")
		}
		op := d.Alloc.Modules[0].Ops[0]
		d.Alloc.ModuleOf[op] = 1
		expectViolation(t, validate.Design(d), "alloc", "module-ownership")
	})
	t.Run("module-ids-dense", func(t *testing.T) {
		d := freshDesign(t)
		d.Alloc.Modules[0].ID = 7
		expectViolation(t, validate.Design(d), "alloc", "module-ids-dense")
	})
	t.Run("reg-lifetime-disjoint", func(t *testing.T) {
		d := freshDesign(t)
		shared := -1
		for i, r := range d.Alloc.Regs {
			if len(r.Vals) >= 2 {
				shared = i
				break
			}
		}
		if shared < 0 {
			t.Skip("no register is shared in this design")
		}
		vals := d.Alloc.Regs[shared].Vals
		d.Life[vals[1]] = d.Life[vals[0]] // identical interval: overlap
		expectViolation(t, validate.Design(d), "alloc", "reg-lifetime-disjoint")
	})
	t.Run("reg-lifetime-known", func(t *testing.T) {
		d := freshDesign(t)
		shared := -1
		for i, r := range d.Alloc.Regs {
			if len(r.Vals) >= 2 {
				shared = i
				break
			}
		}
		if shared < 0 {
			t.Skip("no register is shared in this design")
		}
		delete(d.Life, d.Alloc.Regs[shared].Vals[0])
		expectViolation(t, validate.Design(d), "alloc", "reg-lifetime-known")
	})
	t.Run("reg-ownership", func(t *testing.T) {
		d := freshDesign(t)
		if len(d.Alloc.Regs) < 2 {
			t.Skip("allocation has a single register")
		}
		v := d.Alloc.Regs[0].Vals[0]
		d.Alloc.RegOf[v] = 1
		expectViolation(t, validate.Design(d), "alloc", "reg-ownership")
	})
}

func TestNetlistCorruptionsDetected(t *testing.T) {
	d := freshDesign(t)
	scanRegs := []int{0}
	if len(d.Alloc.Regs) >= 2 {
		scanRegs = []int{0, 1}
	}
	fresh := func(t *testing.T) *rtl.Netlist {
		t.Helper()
		n, err := rtl.GenerateWithScan(d, 4, rtl.NormalMode, scanRegs)
		if err != nil {
			t.Fatal(err)
		}
		if err := validate.Netlist(n); err != nil {
			t.Fatalf("fresh netlist does not validate: %v", err)
		}
		return n
	}
	t.Run("bus-wiring", func(t *testing.T) {
		n := fresh(t)
		for name := range n.DataIn {
			n.DataIn[name] = gates.Word{len(n.C.Gates)}
			break
		}
		expectViolation(t, validate.Netlist(n), "rtl", "bus-wiring")
	})
	t.Run("scan-chain-complete", func(t *testing.T) {
		n := fresh(t)
		n.ScanRegs = append(n.ScanRegs, 99)
		expectViolation(t, validate.Netlist(n), "rtl", "scan-chain-complete")
	})
	t.Run("scan-chain-order", func(t *testing.T) {
		if len(scanRegs) < 2 {
			t.Skip("need two scanned registers to misorder the chain")
		}
		n := fresh(t)
		n.ScanRegs[0], n.ScanRegs[1] = n.ScanRegs[1], n.ScanRegs[0]
		expectViolation(t, validate.Netlist(n), "rtl", "scan-chain-order")
	})
	t.Run("scan-ports", func(t *testing.T) {
		n := fresh(t)
		for i, name := range n.C.OutputNames {
			if name == "scan_out" {
				n.C.OutputNames[i] = "not_scan_out"
			}
		}
		expectViolation(t, validate.Netlist(n), "rtl", "scan-ports")
	})
}

// TestFlowsValidateClean is the acceptance run: every synthesis flow on
// every paper benchmark at width 4, with the checkers armed end to end,
// reports zero violations — on the design and on the generated netlist.
func TestFlowsValidateClean(t *testing.T) {
	for _, bench := range []string{dfg.BenchEx, dfg.BenchDct, dfg.BenchDiffeq} {
		for _, method := range core.Methods() {
			t.Run(fmt.Sprintf("%s/%s", bench, method), func(t *testing.T) {
				g, err := dfg.ByName(bench, 4)
				if err != nil {
					t.Fatal(err)
				}
				par := core.DefaultParams(4)
				par.Validate = true
				if bench == dfg.BenchDiffeq {
					par.LoopSignal = "exit"
				}
				res, err := core.RunCtx(context.Background(), method, g, par)
				if err != nil {
					t.Fatalf("%s with validation armed: %v", method, err)
				}
				if err := validate.Design(res.Design); err != nil {
					t.Fatalf("finished design violates an invariant: %v", err)
				}
				n, err := rtl.Generate(res.Design, 4, rtl.NormalMode)
				if err != nil {
					t.Fatal(err)
				}
				if err := validate.Netlist(n); err != nil {
					t.Fatalf("generated netlist violates an invariant: %v", err)
				}
			})
		}
	}
}
