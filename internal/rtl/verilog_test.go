package rtl

import (
	"strings"
	"testing"

	"repro/internal/dfg"
)

func TestVerilogStructure(t *testing.T) {
	g := dfg.Tseng(4)
	d := buildLeftEdge(t, g)
	n, err := Generate(d, 4, NormalMode)
	if err != nil {
		t.Fatal(err)
	}
	v := n.Verilog("tseng")
	for _, want := range []string{
		"module tseng (", "input clk, rst;", "endmodule",
		"always @(posedge clk)", "assign",
	} {
		if !strings.Contains(v, want) {
			t.Errorf("verilog missing %q", want)
		}
	}
	// Every DFF must appear in the always block with a reset mux.
	if got := strings.Count(v, "<= rst ? 1'b0 :"); got != len(n.C.DFFs) {
		t.Errorf("%d DFF assignments, want %d", got, len(n.C.DFFs))
	}
	// Each output appears as a port and an assign.
	for name := range n.DataOut {
		if !strings.Contains(v, "out_"+name) {
			t.Errorf("output %s missing from verilog", name)
		}
	}
	// No illegal identifier characters survive.
	for _, bad := range []string{"(*", "[*", "-"} {
		for _, line := range strings.Split(v, "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "wire") && strings.Contains(line, bad) {
				t.Errorf("illegal identifier in %q", line)
			}
		}
	}
}

func TestVerilogDeterministic(t *testing.T) {
	g := dfg.Ex(4)
	d := buildLeftEdge(t, g)
	n, err := Generate(d, 4, NormalMode)
	if err != nil {
		t.Fatal(err)
	}
	if n.Verilog("ex") != n.Verilog("ex") {
		t.Fatal("verilog emission not deterministic")
	}
}

func TestSanitize(t *testing.T) {
	cases := map[string]string{
		"in_a[0]": "in_a_0_",
		"r4[1]":   "r4_1_",
		"fsm_s2":  "fsm_s2",
		"9lives":  "n9lives",
		"":        "n",
		"ok_name": "ok_name",
	}
	for in, want := range cases {
		if got := sanitize(in); got != want {
			t.Errorf("sanitize(%q) = %q, want %q", in, got, want)
		}
	}
}
