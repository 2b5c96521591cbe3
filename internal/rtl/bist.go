package rtl

import (
	"fmt"

	"repro/internal/etpn"
	"repro/internal/exec"
	"repro/internal/gates"
)

// GenerateBIST builds the gate-level netlist with built-in self-test
// hardware in the manner of Papachristou et al. (the paper's reference
// [10]): a bist_en primary input reconfigures the selected TPG registers
// into linear-feedback shift registers (pattern generators) and the
// selected MISR registers into multiple-input signature registers that
// compact their functional D inputs. Each MISR's contents are exposed on
// a sig_r<k> output bus for end-of-test signature comparison.
//
// In normal operation (bist_en low) the data path is unchanged; the
// equivalence tests cover this.
// GenerateBIST shares the rtl.generate panic boundary and the netlist
// check with GenerateWithScan: internal builder panics come back as
// *exec.ExecError, violated invariants as *validate.Error.
func GenerateBIST(d *etpn.Design, width int, mode Mode, tpgRegs, misrRegs []int) (*Netlist, error) {
	return exec.Guard1("rtl.generate", -1, func() (*Netlist, error) {
		return checked(generateBIST(d, width, mode, tpgRegs, misrRegs))
	})
}

func generateBIST(d *etpn.Design, width int, mode Mode, tpgRegs, misrRegs []int) (*Netlist, error) {
	seen := map[int]string{}
	for _, r := range tpgRegs {
		if r < 0 || r >= len(d.Alloc.Regs) {
			return nil, fmt.Errorf("rtl: BIST register %d out of range", r)
		}
		seen[r] = "tpg"
	}
	for _, r := range misrRegs {
		if r < 0 || r >= len(d.Alloc.Regs) {
			return nil, fmt.Errorf("rtl: BIST register %d out of range", r)
		}
		if seen[r] != "" {
			return nil, fmt.Errorf("rtl: register %d assigned to both TPG and MISR", r)
		}
		seen[r] = "misr"
	}
	// Generate the base netlist with the BIST registers on the "scan"
	// path so their functional D nets are captured and left unwired, then
	// wire the BIST structures in place of the chain.
	all := append(append([]int(nil), tpgRegs...), misrRegs...)
	nl, err := generateCaptured(d, width, mode, all, func(b *gates.Builder, regBus []gates.Word, funcD []gates.Word) error {
		if len(all) == 0 {
			return nil
		}
		bistEn := b.Input("bist_en")
		for _, rid := range tpgRegs {
			q := regBus[rid]
			next := b.LFSRNext(q)
			b.SetDWord(q, b.Mux2W(bistEn, next, funcD[rid]))
		}
		for _, rid := range misrRegs {
			q := regBus[rid]
			next := b.MISRNext(q, funcD[rid])
			b.SetDWord(q, b.Mux2W(bistEn, next, funcD[rid]))
			b.OutputWord(fmt.Sprintf("sig_r%d", rid), q)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	nl.BISTTpg = append(nl.BISTTpg, tpgRegs...)
	nl.BISTMisr = append(nl.BISTMisr, misrRegs...)
	return nl, nil
}
