// Package dfg defines the data-flow graph intermediate representation used
// as the behavioral input to high-level test synthesis.
//
// A Graph is a pure data-flow description of a computation: operation nodes
// (Node) consume and produce values (Value). Values are either primary
// inputs, compile-time constants, or the results of operations; a value may
// additionally be marked as a primary output. The representation corresponds
// to the unscheduled behavioural specification the paper's synthesis
// algorithm accepts (after the VHDL front-end in package hdl has elaborated
// the source text).
package dfg

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// OpKind enumerates the operation types supported by the data path.
type OpKind int

// Operation kinds. The arithmetic subset (Add..Cmp*) is what the 1998 HLS
// benchmark suite uses; the logical subset rounds out the module library.
const (
	OpInvalid OpKind = iota
	OpAdd
	OpSub
	OpMul
	OpLt  // less-than comparison, produces 0/1
	OpGt  // greater-than comparison
	OpEq  // equality comparison
	OpAnd // bitwise and
	OpOr  // bitwise or
	OpXor // bitwise xor
	OpNot // bitwise complement (unary)
	OpShl // shift left by constant operand
	OpShr // logical shift right by constant operand
	OpMov // identity move (unary)
)

var opNames = map[OpKind]string{
	OpInvalid: "invalid",
	OpAdd:     "+",
	OpSub:     "-",
	OpMul:     "*",
	OpLt:      "<",
	OpGt:      ">",
	OpEq:      "==",
	OpAnd:     "&",
	OpOr:      "|",
	OpXor:     "^",
	OpNot:     "~",
	OpShl:     "<<",
	OpShr:     ">>",
	OpMov:     "mov",
}

// String returns the conventional operator symbol for k.
func (k OpKind) String() string {
	if s, ok := opNames[k]; ok {
		return s
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// Arity reports the number of operands the operation consumes.
func (k OpKind) Arity() int {
	switch k {
	case OpNot, OpMov:
		return 1
	default:
		return 2
	}
}

// NodeID identifies an operation node within a Graph.
type NodeID int

// ValueID identifies a value within a Graph.
type ValueID int

// NoNode and NoValue are sentinel identifiers.
const (
	NoNode  NodeID  = -1
	NoValue ValueID = -1
)

// ValueKind classifies how a value is produced.
type ValueKind int

// Value kinds.
const (
	ValInput ValueKind = iota // primary input port
	ValConst                  // compile-time constant
	ValTemp                   // produced by an operation node
)

// Node is a single operation instance in the data-flow graph.
type Node struct {
	ID   NodeID
	Name string // benchmark node label, e.g. "N21"
	Kind OpKind
	In   []ValueID // operand values, length == Kind.Arity()
	Out  ValueID   // result value
}

// Value is a datum flowing through the graph.
type Value struct {
	ID       ValueID
	Name     string // variable name, e.g. "dx"
	Kind     ValueKind
	Const    int64  // meaningful only when Kind == ValConst
	Def      NodeID // producing node; NoNode for inputs and constants
	Uses     []NodeID
	IsOutput bool // primary output of the behaviour
}

// Graph is a complete data-flow graph.
type Graph struct {
	Name  string
	Width int // default bit width of every value; overridable at synthesis
	// Loop names the value that closes the behaviour's loop, or "" for
	// straight-line code.
	Loop   string
	nodes  []*Node
	values []*Value
	byName map[string]ValueID
}

// New returns an empty graph with the given name and default bit width.
func New(name string, width int) *Graph {
	return &Graph{Name: name, Width: width, byName: make(map[string]ValueID)}
}

// NumNodes returns the number of operation nodes.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumValues returns the number of values.
func (g *Graph) NumValues() int { return len(g.values) }

// Node returns the node with the given id.
func (g *Graph) Node(id NodeID) *Node { return g.nodes[id] }

// Value returns the value with the given id.
func (g *Graph) Value(id ValueID) *Value { return g.values[id] }

// Nodes returns the operation nodes in id order. The returned slice is the
// graph's backing store; callers must not mutate it.
func (g *Graph) Nodes() []*Node { return g.nodes }

// Values returns the values in id order. The returned slice is the graph's
// backing store; callers must not mutate it.
func (g *Graph) Values() []*Value { return g.values }

// ValueByName returns the value with the given variable name.
func (g *Graph) ValueByName(name string) (ValueID, bool) {
	id, ok := g.byName[name]
	return id, ok
}

// NodeByName returns the node with the given label.
func (g *Graph) NodeByName(name string) (NodeID, bool) {
	for _, n := range g.nodes {
		if n.Name == name {
			return n.ID, true
		}
	}
	return NoNode, false
}

// Input declares a new primary input value.
func (g *Graph) Input(name string) ValueID {
	return g.addValue(&Value{Name: name, Kind: ValInput, Def: NoNode})
}

// Const declares a new constant value.
func (g *Graph) Const(name string, c int64) ValueID {
	return g.addValue(&Value{Name: name, Kind: ValConst, Const: c, Def: NoNode})
}

// Op adds an operation node producing a fresh temp value with the given
// name. The node label defaults to "N<k>" where k is the node index; use
// OpNamed to control it.
func (g *Graph) Op(kind OpKind, resultName string, operands ...ValueID) ValueID {
	return g.OpNamed(fmt.Sprintf("N%d", len(g.nodes)+1), kind, resultName, operands...)
}

// OpNamed adds an operation node with an explicit label.
func (g *Graph) OpNamed(label string, kind OpKind, resultName string, operands ...ValueID) ValueID {
	if len(operands) != kind.Arity() {
		panic(fmt.Sprintf("dfg: op %s wants %d operands, got %d", kind, kind.Arity(), len(operands)))
	}
	nid := NodeID(len(g.nodes))
	out := g.addValue(&Value{Name: resultName, Kind: ValTemp, Def: nid})
	n := &Node{ID: nid, Name: label, Kind: kind, In: append([]ValueID(nil), operands...), Out: out}
	g.nodes = append(g.nodes, n)
	for _, v := range operands {
		g.values[v].Uses = append(g.values[v].Uses, nid)
	}
	return out
}

// MarkOutput marks v as a primary output.
func (g *Graph) MarkOutput(v ValueID) { g.values[v].IsOutput = true }

// Rename changes a value's name (used by front ends to give an output
// port's name to the expression that drives it). The new name must be
// unused.
func (g *Graph) Rename(v ValueID, name string) error {
	if g.values[v].Name == name {
		return nil
	}
	if _, exists := g.byName[name]; exists {
		return fmt.Errorf("dfg: name %q already in use", name)
	}
	val := g.values[v]
	delete(g.byName, val.Name)
	val.Name = name
	g.byName[name] = v
	return nil
}

// Outputs returns the ids of all primary-output values in id order.
func (g *Graph) Outputs() []ValueID {
	var out []ValueID
	for _, v := range g.values {
		if v.IsOutput {
			out = append(out, v.ID)
		}
	}
	return out
}

// Inputs returns the ids of all primary-input values in id order.
func (g *Graph) Inputs() []ValueID {
	var in []ValueID
	for _, v := range g.values {
		if v.Kind == ValInput {
			in = append(in, v.ID)
		}
	}
	return in
}

// Consts returns the ids of all constant values in id order.
func (g *Graph) Consts() []ValueID {
	var cs []ValueID
	for _, v := range g.values {
		if v.Kind == ValConst {
			cs = append(cs, v.ID)
		}
	}
	return cs
}

func (g *Graph) addValue(v *Value) ValueID {
	v.ID = ValueID(len(g.values))
	if v.Name == "" {
		v.Name = fmt.Sprintf("t%d", v.ID)
	}
	if _, dup := g.byName[v.Name]; dup {
		panic(fmt.Sprintf("dfg: duplicate value name %q in graph %s", v.Name, g.Name))
	}
	g.byName[v.Name] = v.ID
	g.values = append(g.values, v)
	return v.ID
}

// Preds returns the operation nodes that produce n's operands (duplicates
// removed, order by node id).
func (g *Graph) Preds(n NodeID) []NodeID {
	var out []NodeID
	for _, v := range g.nodes[n].In {
		if d := g.values[v].Def; d != NoNode {
			out = append(out, d)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// Succs returns the operation nodes that consume n's result (duplicates
// removed, order by node id).
func (g *Graph) Succs(n NodeID) []NodeID {
	out := append([]NodeID(nil), g.values[g.nodes[n].Out].Uses...)
	slices.Sort(out)
	return slices.Compact(out)
}

// TopoOrder returns the node ids in a topological order of the data
// dependences. It returns an error if the graph contains a dependence cycle.
func (g *Graph) TopoOrder() ([]NodeID, error) {
	indeg := make([]int, len(g.nodes))
	for _, n := range g.nodes {
		indeg[n.ID] = len(g.Preds(n.ID))
	}
	var queue []NodeID
	for _, n := range g.nodes {
		if indeg[n.ID] == 0 {
			queue = append(queue, n.ID)
		}
	}
	var order []NodeID
	for len(queue) > 0 {
		sort.Slice(queue, func(i, j int) bool { return queue[i] < queue[j] })
		n := queue[0]
		queue = queue[1:]
		order = append(order, n)
		for _, s := range g.Succs(n) {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if len(order) != len(g.nodes) {
		return nil, fmt.Errorf("dfg: graph %s contains a dependence cycle", g.Name)
	}
	return order, nil
}

// Validate checks structural well-formedness: at least one operation,
// operand arities, id consistency, use lists, and acyclicity. A behaviour
// with no operations has no control steps to schedule.
func (g *Graph) Validate() error {
	if len(g.nodes) == 0 {
		return fmt.Errorf("dfg: graph %s has no operations", g.Name)
	}
	for i, n := range g.nodes {
		if n.ID != NodeID(i) {
			return fmt.Errorf("dfg: node %d has inconsistent id %d", i, n.ID)
		}
		if len(n.In) != n.Kind.Arity() {
			return fmt.Errorf("dfg: node %s (%s) has %d operands, want %d", n.Name, n.Kind, len(n.In), n.Kind.Arity())
		}
		for _, v := range n.In {
			if v < 0 || int(v) >= len(g.values) {
				return fmt.Errorf("dfg: node %s references unknown value %d", n.Name, v)
			}
		}
		if n.Out < 0 || int(n.Out) >= len(g.values) {
			return fmt.Errorf("dfg: node %s has invalid result value %d", n.Name, n.Out)
		}
		if g.values[n.Out].Def != n.ID {
			return fmt.Errorf("dfg: result value of node %s does not point back to it", n.Name)
		}
	}
	for i, v := range g.values {
		if v.ID != ValueID(i) {
			return fmt.Errorf("dfg: value %d has inconsistent id %d", i, v.ID)
		}
		if v.Kind == ValTemp && v.Def == NoNode {
			return fmt.Errorf("dfg: temp value %s has no defining node", v.Name)
		}
		if v.Kind != ValTemp && v.Def != NoNode {
			return fmt.Errorf("dfg: non-temp value %s has a defining node", v.Name)
		}
		for _, u := range v.Uses {
			found := false
			for _, in := range g.nodes[u].In {
				if in == v.ID {
					found = true
				}
			}
			if !found {
				return fmt.Errorf("dfg: value %s lists node %s as a use, but the node does not read it", v.Name, g.nodes[u].Name)
			}
		}
	}
	if _, err := g.TopoOrder(); err != nil {
		return err
	}
	return nil
}

// String renders a compact single-line-per-node listing.
func (g *Graph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "graph %s (width %d)\n", g.Name, g.Width)
	for _, n := range g.nodes {
		ops := make([]string, len(n.In))
		for i, v := range n.In {
			ops[i] = g.values[v].Name
		}
		fmt.Fprintf(&b, "  %s: %s = %s %s\n", n.Name, g.values[n.Out].Name, n.Kind, strings.Join(ops, ", "))
	}
	return b.String()
}

// Dot renders the graph in Graphviz dot format.
func (g *Graph) Dot() string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=TB;\n", g.Name)
	for _, v := range g.values {
		switch {
		case v.Kind == ValInput:
			fmt.Fprintf(&b, "  v%d [label=%q shape=invtriangle];\n", v.ID, v.Name)
		case v.Kind == ValConst:
			fmt.Fprintf(&b, "  v%d [label=\"%s=%d\" shape=plaintext];\n", v.ID, v.Name, v.Const)
		case v.IsOutput:
			fmt.Fprintf(&b, "  v%d [label=%q shape=triangle];\n", v.ID, v.Name)
		}
	}
	for _, n := range g.nodes {
		fmt.Fprintf(&b, "  n%d [label=\"%s\\n%s\" shape=circle];\n", n.ID, n.Name, n.Kind)
		for _, v := range n.In {
			val := g.values[v]
			if val.Def != NoNode {
				fmt.Fprintf(&b, "  n%d -> n%d [label=%q];\n", val.Def, n.ID, val.Name)
			} else {
				fmt.Fprintf(&b, "  v%d -> n%d;\n", v, n.ID)
			}
		}
		if out := g.values[n.Out]; out.IsOutput {
			fmt.Fprintf(&b, "  n%d -> v%d;\n", n.ID, out.ID)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
