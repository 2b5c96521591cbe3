package rtl

import (
	"fmt"
	"strings"

	"repro/internal/gates"
)

// Verilog emits the generated netlist as a synthesizable structural
// Verilog module: one wire per net, primitive gate instances, and a
// positive-edge-triggered always block per flip-flop with a synchronous
// active-high reset (matching the simulator's reset-to-zero semantics).
// Data buses appear as individual port bits named after the circuit's
// inputs and outputs.
func (n *Netlist) Verilog(moduleName string) string {
	c := n.C
	var b strings.Builder
	fmt.Fprintf(&b, "// Generated by hlts — high-level test synthesis\n")
	fmt.Fprintf(&b, "// %s\n", c.Stats())
	fmt.Fprintf(&b, "module %s (\n  clk, rst", sanitize(moduleName))
	for _, id := range c.Inputs {
		fmt.Fprintf(&b, ",\n  %s", portName(c, id))
	}
	for i := range c.Outputs {
		fmt.Fprintf(&b, ",\n  %s", sanitize(c.OutputNames[i]))
	}
	b.WriteString("\n);\n")
	b.WriteString("  input clk, rst;\n")
	for _, id := range c.Inputs {
		fmt.Fprintf(&b, "  input %s;\n", portName(c, id))
	}
	for i := range c.Outputs {
		fmt.Fprintf(&b, "  output %s;\n", sanitize(c.OutputNames[i]))
	}
	b.WriteString("\n")

	// Nets.
	for _, g := range c.Gates {
		switch g.Kind {
		case gates.KInput:
			continue // ports are their own nets
		case gates.KDFF:
			fmt.Fprintf(&b, "  reg  %s;\n", net(c, g.ID))
		default:
			fmt.Fprintf(&b, "  wire %s;\n", net(c, g.ID))
		}
	}
	b.WriteString("\n")

	// Combinational gates.
	for _, g := range c.Gates {
		ins := make([]string, len(g.In))
		for i, in := range g.In {
			ins[i] = net(c, in)
		}
		switch g.Kind {
		case gates.KInput, gates.KDFF:
			// handled elsewhere
		case gates.KConst0:
			fmt.Fprintf(&b, "  assign %s = 1'b0;\n", net(c, g.ID))
		case gates.KConst1:
			fmt.Fprintf(&b, "  assign %s = 1'b1;\n", net(c, g.ID))
		case gates.KBuf:
			fmt.Fprintf(&b, "  assign %s = %s;\n", net(c, g.ID), ins[0])
		case gates.KNot:
			fmt.Fprintf(&b, "  assign %s = ~%s;\n", net(c, g.ID), ins[0])
		case gates.KAnd:
			fmt.Fprintf(&b, "  assign %s = %s;\n", net(c, g.ID), strings.Join(ins, " & "))
		case gates.KNand:
			fmt.Fprintf(&b, "  assign %s = ~(%s);\n", net(c, g.ID), strings.Join(ins, " & "))
		case gates.KOr:
			fmt.Fprintf(&b, "  assign %s = %s;\n", net(c, g.ID), strings.Join(ins, " | "))
		case gates.KNor:
			fmt.Fprintf(&b, "  assign %s = ~(%s);\n", net(c, g.ID), strings.Join(ins, " | "))
		case gates.KXor:
			fmt.Fprintf(&b, "  assign %s = %s ^ %s;\n", net(c, g.ID), ins[0], ins[1])
		case gates.KXnor:
			fmt.Fprintf(&b, "  assign %s = ~(%s ^ %s);\n", net(c, g.ID), ins[0], ins[1])
		}
	}
	b.WriteString("\n")

	// State elements.
	if len(c.DFFs) > 0 {
		b.WriteString("  always @(posedge clk) begin\n")
		for _, id := range c.DFFs {
			g := c.Gates[id]
			fmt.Fprintf(&b, "    %s <= rst ? 1'b0 : %s;\n", net(c, id), net(c, g.In[0]))
		}
		b.WriteString("  end\n\n")
	}

	// Outputs.
	for i, o := range c.Outputs {
		fmt.Fprintf(&b, "  assign %s = %s;\n", sanitize(c.OutputNames[i]), net(c, o))
	}
	b.WriteString("endmodule\n")
	return b.String()
}

// net names a gate's output net.
func net(c *gates.Circuit, id int) string {
	g := c.Gates[id]
	if g.Kind == gates.KInput {
		return portName(c, id)
	}
	if g.Name != "" {
		return fmt.Sprintf("n%d_%s", id, sanitize(g.Name))
	}
	return fmt.Sprintf("n%d", id)
}

func portName(c *gates.Circuit, id int) string {
	return sanitize(c.Gates[id].Name)
}

// sanitize converts a net label into a Verilog identifier.
func sanitize(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	out := b.String()
	if out == "" || (out[0] >= '0' && out[0] <= '9') {
		out = "n" + out
	}
	return out
}
