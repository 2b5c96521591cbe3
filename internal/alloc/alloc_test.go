package alloc

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dfg"
	"repro/internal/sched"
)

func asap(t *testing.T, g *dfg.Graph) sched.Schedule {
	t.Helper()
	s, err := sched.NewProblem(g).ASAP()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// numStored counts the values a register holds.
func numStored(life Life) int {
	n := 0
	for _, l := range life {
		if l.Stored {
			n++
		}
	}
	return n
}

func TestOverlaps(t *testing.T) {
	cases := []struct {
		a, b Interval
		want bool
	}{
		{Interval{2, 4}, Interval{4, 6}, false}, // abutting: may share
		{Interval{2, 4}, Interval{3, 6}, true},
		{Interval{1, 2}, Interval{1, 2}, true},
		{Interval{0, 5}, Interval{2, 3}, true},
		{Interval{5, 6}, Interval{1, 3}, false},
	}
	for _, c := range cases {
		if got := Overlaps(c.a, c.b); got != c.want {
			t.Errorf("Overlaps(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := Overlaps(c.b, c.a); got != c.want {
			t.Errorf("Overlaps not symmetric for %v,%v", c.a, c.b)
		}
	}
}

func TestLifetimesDiffeq(t *testing.T) {
	g := dfg.Diffeq(8)
	s := asap(t, g)
	life := Lifetimes(g, s)
	// Constant k3 must not be stored.
	k3, _ := g.ValueByName("k3")
	if _, ok := life.Of(k3); ok {
		t.Error("constant k3 must not get a lifetime")
	}
	// Input x: used by N25 (step 1) and N26 (step 1) -> born 0, dies 1.
	x, _ := g.ValueByName("x")
	if life[x] != (Lifetime{Interval{0, 1}, true}) {
		t.Errorf("x lifetime = %v, want {0 1}", life[x])
	}
	// u is used by N27@1, N30@3, N35@1 -> born 0, dies 3.
	u, _ := g.ValueByName("u")
	if life[u] != (Lifetime{Interval{0, 3}, true}) {
		t.Errorf("u lifetime = %v, want {0 3}", life[u])
	}
	// Output u1 defined at step 4, no uses: held one step.
	u1, _ := g.ValueByName("u1")
	if life[u1] != (Lifetime{Interval{4, 5}, true}) {
		t.Errorf("u1 lifetime = %v, want {4 5}", life[u1])
	}
}

func TestLifetimesDeadInputSkipped(t *testing.T) {
	g := dfg.New("d", 8)
	g.Input("unused")
	a := g.Input("a")
	b := g.Input("b")
	g.MarkOutput(g.Op(dfg.OpAdd, "s", a, b))
	s := asap(t, g)
	life := Lifetimes(g, s)
	un, _ := g.ValueByName("unused")
	if _, ok := life.Of(un); ok {
		t.Error("dead input must not be stored")
	}
}

func TestLeftEdgeMinimalAndDisjoint(t *testing.T) {
	for _, name := range dfg.BenchmarkNames() {
		g, _ := dfg.ByName(name, 8)
		s := asap(t, g)
		life := Lifetimes(g, s)
		regOf, n := RegisterLeftEdge(g, life)
		if err := VerifyDisjoint(g, life, regOf); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if n <= 0 || n > numStored(life) {
			t.Errorf("%s: register count %d out of range", name, n)
		}
		// Left-edge is optimal for interval packing: register count must
		// equal the max number of simultaneously live values.
		maxLive := 0
		for step := 0; step <= s.Len+1; step++ {
			live := 0
			for _, iv := range life {
				if iv.Stored && iv.Birth < step && step <= iv.Death {
					live++
				}
			}
			if live > maxLive {
				maxLive = live
			}
		}
		if n != maxLive {
			t.Errorf("%s: left-edge used %d registers, max live = %d", name, n, maxLive)
		}
	}
}

func TestTestableLeftEdgeDisjointAndNoWorse(t *testing.T) {
	for _, name := range dfg.BenchmarkNames() {
		g, _ := dfg.ByName(name, 8)
		s := asap(t, g)
		life := Lifetimes(g, s)
		_, nPlain := RegisterLeftEdge(g, life)
		regOf, n := RegisterLeftEdgeTestable(g, life)
		if err := VerifyDisjoint(g, life, regOf); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if n != nPlain {
			t.Errorf("%s: testable left-edge used %d registers, plain used %d", name, n, nPlain)
		}
	}
}

func TestBindModulesLegal(t *testing.T) {
	for _, name := range dfg.BenchmarkNames() {
		g, _ := dfg.ByName(name, 8)
		s := asap(t, g)
		life := Lifetimes(g, s)
		regOf, n := RegisterLeftEdge(g, life)
		a := BindModules(g, s, sched.ExactClass, regOf, n)
		if err := a.Verify(g, s, sched.ExactClass, life); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		// Module count per class equals peak concurrency per class.
		peak := map[string]map[int]int{}
		for _, nd := range g.Nodes() {
			c := sched.ExactClass(nd.Kind)
			if peak[c] == nil {
				peak[c] = map[int]int{}
			}
			peak[c][s.Step[nd.ID]]++
		}
		for c, steps := range peak {
			max := 0
			for _, k := range steps {
				if k > max {
					max = k
				}
			}
			got := 0
			for _, m := range a.Modules {
				if m.Class == c {
					got++
				}
			}
			if got != max {
				t.Errorf("%s class %s: %d modules, want peak %d", name, c, got, max)
			}
		}
	}
}

func TestDefaultAllocation(t *testing.T) {
	g := dfg.Ex(8)
	s := asap(t, g)
	life := Lifetimes(g, s)
	a := Default(g, sched.ExactClass, life)
	if a.NumModules() != g.NumNodes() {
		t.Errorf("default modules = %d, want %d", a.NumModules(), g.NumNodes())
	}
	if a.NumRegs() != numStored(life) {
		t.Errorf("default registers = %d, want %d", a.NumRegs(), numStored(life))
	}
	if err := a.Verify(g, s, sched.ExactClass, life); err != nil {
		t.Fatal(err)
	}
}

func TestMergeModules(t *testing.T) {
	g := dfg.Ex(8)
	s := asap(t, g)
	life := Lifetimes(g, s)
	a := Default(g, sched.ExactClass, life)
	n21, _ := g.NodeByName("N21")
	n24, _ := g.NodeByName("N24")
	n25, _ := g.NodeByName("N25")
	before := a.NumModules()
	if err := a.MergeModules(a.ModuleOf[n21], a.ModuleOf[n24]); err != nil {
		t.Fatal(err)
	}
	if a.NumModules() != before-1 {
		t.Errorf("module count %d, want %d", a.NumModules(), before-1)
	}
	if a.ModuleOf[n21] != a.ModuleOf[n24] {
		t.Error("merged ops must share a module")
	}
	// Class-incompatible merger must fail (N21 *, N25 -).
	if err := a.MergeModules(a.ModuleOf[n21], a.ModuleOf[n25]); err == nil {
		t.Error("expected class-incompatibility error")
	}
	// Self merger must fail.
	if err := a.MergeModules(a.ModuleOf[n21], a.ModuleOf[n21]); err == nil {
		t.Error("expected self-merge error")
	}
	// Ids must remain dense and consistent.
	for idx, m := range a.Modules {
		if m.ID != idx {
			t.Errorf("module %d has id %d", idx, m.ID)
		}
		for _, op := range m.Ops {
			if a.ModuleOf[op] != idx {
				t.Errorf("ModuleOf[%v] = %d, want %d", op, a.ModuleOf[op], idx)
			}
		}
	}
}

func TestMergeRegs(t *testing.T) {
	g := dfg.Ex(8)
	s := asap(t, g)
	life := Lifetimes(g, s)
	a := Default(g, sched.ExactClass, life)
	va, _ := g.ValueByName("a")
	ve, _ := g.ValueByName("e")
	before := a.NumRegs()
	if err := a.MergeRegs(a.RegOf[va], a.RegOf[ve]); err != nil {
		t.Fatal(err)
	}
	if a.NumRegs() != before-1 {
		t.Errorf("register count %d, want %d", a.NumRegs(), before-1)
	}
	if a.RegOf[va] != a.RegOf[ve] {
		t.Error("merged values must share a register")
	}
	if err := a.MergeRegs(a.RegOf[va], a.RegOf[va]); err == nil {
		t.Error("expected self-merge error")
	}
}

func TestVerifyCatchesOverlapAfterMerge(t *testing.T) {
	g := dfg.Ex(8)
	s := asap(t, g)
	life := Lifetimes(g, s)
	a := Default(g, sched.ExactClass, life)
	// a and b are both inputs used at step 1: lifetimes overlap.
	va, _ := g.ValueByName("a")
	vb, _ := g.ValueByName("b")
	if err := a.MergeRegs(a.RegOf[va], a.RegOf[vb]); err != nil {
		t.Fatal(err)
	}
	if err := a.Verify(g, s, sched.ExactClass, life); err == nil {
		t.Fatal("expected overlap detection")
	}
}

func TestVerifyCatchesModuleStepClash(t *testing.T) {
	g := dfg.Ex(8)
	s := asap(t, g)
	life := Lifetimes(g, s)
	a := Default(g, sched.ExactClass, life)
	n21, _ := g.NodeByName("N21")
	n22, _ := g.NodeByName("N22") // both at step 1
	if err := a.MergeModules(a.ModuleOf[n21], a.ModuleOf[n22]); err != nil {
		t.Fatal(err)
	}
	if err := a.Verify(g, s, sched.ExactClass, life); err == nil {
		t.Fatal("expected step-clash detection")
	}
}

func TestAllocationString(t *testing.T) {
	g := dfg.Ex(8)
	s := asap(t, g)
	life := Lifetimes(g, s)
	regOf, n := RegisterLeftEdge(g, life)
	a := BindModules(g, s, sched.ExactClass, regOf, n)
	str := a.String(g)
	if !strings.Contains(str, "(*)") || !strings.Contains(str, "R:") {
		t.Errorf("allocation rendering incomplete:\n%s", str)
	}
}

func TestConnectivityScores(t *testing.T) {
	g := dfg.Ex(8)
	s := asap(t, g)
	life := Lifetimes(g, s)
	a := Default(g, sched.ExactClass, life)
	n21, _ := g.NodeByName("N21")
	n24, _ := g.NodeByName("N24")
	n22, _ := g.NodeByName("N22")
	// N21 (a*b) and N24 (a*d) share source register a.
	if got := Connectivity(g, a, a.ModuleOf[n21], a.ModuleOf[n24]); got < 1 {
		t.Errorf("N21/N24 connectivity = %d, want >= 1", got)
	}
	// N21 (a*b) and N22 (c*d) share nothing.
	if got := Connectivity(g, a, a.ModuleOf[n21], a.ModuleOf[n22]); got != 0 {
		t.Errorf("N21/N22 connectivity = %d, want 0", got)
	}
}

func TestRegConnectivity(t *testing.T) {
	g := dfg.Ex(8)
	s := asap(t, g)
	life := Lifetimes(g, s)
	a := Default(g, sched.ExactClass, life)
	// e (def N21) and u (def N24): after merging modules N21,N24 they share
	// a writer.
	n21, _ := g.NodeByName("N21")
	n24, _ := g.NodeByName("N24")
	if err := a.MergeModules(a.ModuleOf[n21], a.ModuleOf[n24]); err != nil {
		t.Fatal(err)
	}
	ve, _ := g.ValueByName("e")
	vu, _ := g.ValueByName("u")
	if got := RegConnectivity(g, a, a.RegOf[ve], a.RegOf[vu]); got < 1 {
		t.Errorf("e/u register connectivity = %d, want >= 1", got)
	}
}

// Property: left-edge allocation over random schedules is always disjoint
// and optimal.
func TestLeftEdgeRandom(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := dfg.New("r", 8)
		pool := []dfg.ValueID{g.Input("i0"), g.Input("i1")}
		for i := 0; i < 3+rng.Intn(15); i++ {
			a := pool[rng.Intn(len(pool))]
			b := pool[rng.Intn(len(pool))]
			pool = append(pool, g.Op(dfg.OpAdd, "", a, b))
		}
		for _, v := range g.Values() {
			if v.Kind == dfg.ValTemp && len(v.Uses) == 0 {
				g.MarkOutput(v.ID)
			}
		}
		s, err := sched.NewProblem(g).ASAP()
		if err != nil {
			return false
		}
		life := Lifetimes(g, s)
		regOf, _ := RegisterLeftEdge(g, life)
		return VerifyDisjoint(g, life, regOf) == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestVerifyDisjointDeterministic checks that an allocation with two
// overlapping registers is always reported by the same violation: the
// lowest register, its values in id order.
func TestVerifyDisjointDeterministic(t *testing.T) {
	g := dfg.Ex(8)
	s := asap(t, g)
	life := Lifetimes(g, s)
	a := Default(g, sched.ExactClass, life)
	// a, b, c and d are all read in step 1: both merged registers overlap.
	for _, pair := range [][2]string{{"a", "b"}, {"c", "d"}} {
		x, _ := g.ValueByName(pair[0])
		y, _ := g.ValueByName(pair[1])
		if err := a.MergeRegs(a.RegOf[x], a.RegOf[y]); err != nil {
			t.Fatal(err)
		}
	}
	msgs := map[string]bool{}
	for i := 0; i < 50; i++ {
		err := VerifyDisjoint(g, life, a.RegOf)
		if err == nil {
			t.Fatal("overlap not detected")
		}
		msgs[err.Error()] = true
	}
	if len(msgs) != 1 {
		t.Errorf("50 calls gave %d distinct messages: %v", len(msgs), msgs)
	}
	for m := range msgs {
		if !strings.Contains(m, "values a ") || !strings.Contains(m, " and b ") {
			t.Errorf("message %q does not name the lowest register's values a and b", m)
		}
	}
}
