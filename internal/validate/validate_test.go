// External test package: the checkers are exercised through the real
// synthesis flows (core imports validate, so an in-package test importing
// core would be an import cycle).
package validate_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/alloc"
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
		d.Life[d.Alloc.Regs[shared].Vals[0]] = alloc.Lifetime{}
		expectViolation(t, validate.Design(d), "alloc", "reg-lifetime-known")
	})
	t.Run("binding-size", func(t *testing.T) {
		d := freshDesign(t)
		d.Life = d.Life[:len(d.Life)-1]
		expectViolation(t, validate.Design(d), "alloc", "binding-size")
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

// TestOwnershipMessagesDeterministic corrupts several bindings at once and
// validates the design 50 times: the ownership walks visit operations and
// values in id order, so every call must name the same offender.
func TestOwnershipMessagesDeterministic(t *testing.T) {
	once := func(t *testing.T, d *etpn.Design, invariant string) {
		t.Helper()
		msgs := map[string]bool{}
		for i := 0; i < 50; i++ {
			err := validate.Design(d)
			expectViolation(t, err, "alloc", invariant)
			msgs[err.Error()] = true
		}
		if len(msgs) != 1 {
			t.Errorf("50 validations gave %d distinct messages: %v", len(msgs), msgs)
		}
	}
	t.Run("ModuleOf", func(t *testing.T) {
		d := freshDesign(t)
		// Unlist the last operation of every shared module: each keeps a
		// ModuleOf entry naming a module that no longer lists it.
		dropped := 0
		for _, m := range d.Alloc.Modules {
			if len(m.Ops) >= 2 {
				m.Ops = m.Ops[:len(m.Ops)-1]
				dropped++
			}
		}
		if dropped < 2 {
			t.Fatalf("only %d shared modules; the fixture needs two offenders", dropped)
		}
		once(t, d, "module-ownership")
	})
	t.Run("RegOf", func(t *testing.T) {
		d := freshDesign(t)
		dropped := 0
		for _, r := range d.Alloc.Regs {
			if len(r.Vals) >= 2 {
				r.Vals = r.Vals[:len(r.Vals)-1]
				dropped++
			}
		}
		if dropped < 2 {
			t.Fatalf("only %d shared registers; the fixture needs two offenders", dropped)
		}
		once(t, d, "reg-ownership")
	})
}

// TestAllocationMatchesReference compares the allocation checker with its
// map-based reference on the designs of every flow for Ex, Dct and Diffeq:
// clean, with one shared module or register unlisting its last member
// (a single offender, which both must name alike), and with every shared
// one doing so at once, where the checker must name an offender the
// reference names when that offender is alone.
func TestAllocationMatchesReference(t *testing.T) {
	compare := func(t *testing.T, d *etpn.Design) error {
		t.Helper()
		got, ref := validate.Allocation(d), validate.RefAllocation(d)
		if (got == nil) != (ref == nil) || (got != nil && got.Error() != ref.Error()) {
			t.Fatalf("got %v, reference %v", got, ref)
		}
		return got
	}
	for _, bench := range []string{dfg.BenchEx, dfg.BenchDct, dfg.BenchDiffeq} {
		for _, method := range core.Methods() {
			t.Run(bench+"/"+method, func(t *testing.T) {
				g, err := dfg.ByName(bench, 4)
				if err != nil {
					t.Fatal(err)
				}
				par := core.DefaultParams(4)
				if bench == dfg.BenchDiffeq {
					par.LoopSignal = "exit"
				}
				res, err := core.RunCtx(context.Background(), method, g, par)
				if err != nil {
					t.Fatal(err)
				}
				d := res.Design
				if err := compare(t, d); err != nil {
					t.Fatalf("clean design rejected: %v", err)
				}
				var unlist, restore []func()
				for _, m := range d.Alloc.Modules {
					if ops := m.Ops; len(ops) >= 2 {
						unlist = append(unlist, func() { m.Ops = ops[:len(ops)-1] })
						restore = append(restore, func() { m.Ops = ops })
					}
				}
				for _, r := range d.Alloc.Regs {
					if vals := r.Vals; len(vals) >= 2 {
						unlist = append(unlist, func() { r.Vals = vals[:len(vals)-1] })
						restore = append(restore, func() { r.Vals = vals })
					}
				}
				singles := map[string]bool{}
				for i := range unlist {
					unlist[i]()
					err := compare(t, d)
					if err == nil {
						t.Fatal("unlisted member not detected")
					}
					singles[err.Error()] = true
					restore[i]()
				}
				for _, f := range unlist {
					f()
				}
				got, ref := validate.Allocation(d), validate.RefAllocation(d)
				if len(unlist) > 0 && (got == nil || ref == nil || !singles[got.Error()] || !singles[ref.Error()]) {
					t.Fatalf("several offenders: got %v, reference %v, single offenders %v", got, ref, singles)
				}
			})
		}
	}
}
