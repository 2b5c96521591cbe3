package sched

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dfg"
)

func mustASAP(t *testing.T, p *Problem) Schedule {
	t.Helper()
	s, err := p.ASAP()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestASAPDiffeq(t *testing.T) {
	g := dfg.Diffeq(8)
	p := NewProblem(g)
	s := mustASAP(t, p)
	if err := p.Verify(s); err != nil {
		t.Fatal(err)
	}
	// Critical chain: N26/N27 -> N31 -> N30 -> N34 gives length 4.
	if s.Len != 4 {
		t.Errorf("diffeq ASAP length = %d, want 4", s.Len)
	}
	n26, _ := g.NodeByName("N26")
	if s.Step[n26] != 1 {
		t.Errorf("N26 at step %d, want 1", s.Step[n26])
	}
	n34, _ := g.NodeByName("N34")
	if s.Step[n34] != 4 {
		t.Errorf("N34 at step %d, want 4", s.Step[n34])
	}
}

func TestALAPRespectsLatency(t *testing.T) {
	g := dfg.Ex(8)
	p := NewProblem(g)
	asap := mustASAP(t, p)
	for lat := asap.Len; lat <= asap.Len+3; lat++ {
		s, err := p.ALAP(lat)
		if err != nil {
			t.Fatalf("latency %d: %v", lat, err)
		}
		for n, st := range s.Step {
			if st < 1 || st > lat {
				t.Errorf("latency %d: node %d at step %d", lat, n, st)
			}
		}
		if err := p.Verify(s); err != nil {
			t.Errorf("latency %d: %v", lat, err)
		}
	}
}

func TestALAPInfeasible(t *testing.T) {
	g := dfg.Ex(8)
	p := NewProblem(g)
	asap := mustASAP(t, p)
	if _, err := p.ALAP(asap.Len - 1); err == nil {
		t.Fatal("expected infeasible-latency error")
	}
}

func TestMobilityNonNegativeAndZeroOnCriticalPath(t *testing.T) {
	g := dfg.EWF(8)
	p := NewProblem(g)
	asap := mustASAP(t, p)
	alap, err := p.ALAP(asap.Len)
	if err != nil {
		t.Fatal(err)
	}
	zero := 0
	for n := range asap.Step {
		m := alap.Step[n] - asap.Step[n]
		if m < 0 {
			t.Errorf("node %d has negative mobility %d", n, m)
		}
		if m == 0 {
			zero++
		}
	}
	if zero == 0 {
		t.Error("no zero-mobility (critical) operations found")
	}
}

func TestExtraArcsShiftASAP(t *testing.T) {
	g := dfg.Ex(8)
	p := NewProblem(g)
	n21, _ := g.NodeByName("N21")
	n22, _ := g.NodeByName("N22")
	base := mustASAP(t, p)
	if base.Step[n21] != base.Step[n22] {
		t.Fatalf("test premise: N21 and N22 should tie at step 1")
	}
	p.Extra = append(p.Extra, [2]dfg.NodeID{n21, n22})
	s := mustASAP(t, p)
	if s.Step[n22] != s.Step[n21]+1 {
		t.Errorf("extra arc not honoured: N21@%d N22@%d", s.Step[n21], s.Step[n22])
	}
}

func TestExtraArcCycleDetected(t *testing.T) {
	g := dfg.Ex(8)
	p := NewProblem(g)
	n21, _ := g.NodeByName("N21")
	n25, _ := g.NodeByName("N25") // N25 depends on N21 via data flow
	p.Extra = append(p.Extra, [2]dfg.NodeID{n25, n21})
	if _, err := p.ASAP(); err == nil {
		t.Fatal("expected cycle error")
	}
}

func TestListScheduleModuleConstraint(t *testing.T) {
	g := dfg.Ex(8)
	p := NewProblem(g)
	// Bind all four multiplications to one module.
	mod := 0
	for _, n := range g.Nodes() {
		if n.Kind == dfg.OpMul {
			p.ModuleOf[n.ID] = mod
		}
	}
	s, err := p.List()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Verify(s); err != nil {
		t.Fatal(err)
	}
	// Four mults on one module need at least four steps.
	if s.Len < 4 {
		t.Errorf("schedule length %d too short for 4 serialized mults", s.Len)
	}
	seen := map[int]bool{}
	for _, n := range g.Nodes() {
		if n.Kind == dfg.OpMul {
			st := s.Step[n.ID]
			if seen[st] {
				t.Errorf("two mults share step %d", st)
			}
			seen[st] = true
		}
	}
}

func TestListScheduleLatencyBound(t *testing.T) {
	g := dfg.Ex(8)
	p := NewProblem(g)
	mod := 0
	for _, n := range g.Nodes() {
		p.ModuleOf[n.ID] = mod // all eight ops on one module: needs 8 steps
	}
	p.MaxLen = 5
	if _, err := p.List(); err == nil {
		t.Fatal("expected latency-bound error")
	}
	p.MaxLen = 8
	s, err := p.List()
	if err != nil {
		t.Fatal(err)
	}
	if s.Len != 8 {
		t.Errorf("fully serialized schedule length = %d, want 8", s.Len)
	}
}

func TestVerifyCatchesViolations(t *testing.T) {
	g := dfg.Ex(8)
	p := NewProblem(g)
	s := mustASAP(t, p)
	n25, _ := g.NodeByName("N25")
	bad := s.Clone()
	bad.Step[n25] = 1 // N25 depends on N21/N22 at step 1
	if err := p.Verify(bad); err == nil {
		t.Fatal("expected precedence violation")
	}
	bad2 := s.Clone()
	bad2.Step[n25] = 0
	if err := p.Verify(bad2); err == nil {
		t.Fatal("expected unscheduled-node violation")
	}
}

func TestFDSMeetsLatencyAndReducesPeak(t *testing.T) {
	g := dfg.Diffeq(8)
	p := NewProblem(g)
	asap := mustASAP(t, p)
	lat := asap.Len // 4
	s, err := p.FDS(lat, ExactClass)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len > lat {
		t.Errorf("FDS length %d exceeds latency %d", s.Len, lat)
	}
	if err := p.Verify(s); err != nil {
		t.Fatal(err)
	}
	// FDS must not need more multipliers than ASAP's peak.
	if peak(g, s, dfg.OpMul) > peak(g, asap, dfg.OpMul) {
		t.Errorf("FDS mult peak %d worse than ASAP %d", peak(g, s, dfg.OpMul), peak(g, asap, dfg.OpMul))
	}
}

func TestFDSBalancesEWF(t *testing.T) {
	g := dfg.EWF(8)
	p := NewProblem(g)
	asap := mustASAP(t, p)
	lat := asap.Len + 2
	s, err := p.FDS(lat, ExactClass)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Verify(s); err != nil {
		t.Fatal(err)
	}
	if peak(g, s, dfg.OpAdd) > peak(g, asap, dfg.OpAdd) {
		t.Errorf("FDS add peak %d, ASAP add peak %d", peak(g, s, dfg.OpAdd), peak(g, asap, dfg.OpAdd))
	}
}

func TestMobilityPathSchedules(t *testing.T) {
	for _, name := range dfg.BenchmarkNames() {
		g, _ := dfg.ByName(name, 8)
		p := NewProblem(g)
		asap := mustASAP(t, p)
		s, err := p.MobilityPath(asap.Len+1, ExactClass)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := p.Verify(s); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestALUClassPoolsAddSub(t *testing.T) {
	if ALUClass(dfg.OpAdd) != ALUClass(dfg.OpSub) || ALUClass(dfg.OpAdd) != ALUClass(dfg.OpLt) {
		t.Error("ALUClass must pool +,-,<")
	}
	if ALUClass(dfg.OpMul) == ALUClass(dfg.OpAdd) {
		t.Error("ALUClass must keep * separate")
	}
	if ExactClass(dfg.OpAdd) == ExactClass(dfg.OpSub) {
		t.Error("ExactClass must separate + and -")
	}
}

func TestMergeOrdersInterleavesStably(t *testing.T) {
	a := []dfg.NodeID{1, 3, 5}
	b := []dfg.NodeID{2, 4}
	got := MergeOrders(a, b, nil)
	want := []dfg.NodeID{1, 2, 3, 4, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MergeOrders = %v, want %v", got, want)
		}
	}
}

func TestMergeOrdersPrefer(t *testing.T) {
	a := []dfg.NodeID{10, 11}
	b := []dfg.NodeID{20, 21}
	// Always prefer sequence B's head.
	got := MergeOrders(a, b, func(x, y dfg.NodeID) int { return +1 })
	want := []dfg.NodeID{20, 21, 10, 11}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MergeOrders = %v, want %v", got, want)
		}
	}
}

func TestMergeOrdersPreservesRelativeOrder(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var a, b []dfg.NodeID
		for i := 0; i < rng.Intn(8); i++ {
			a = append(a, dfg.NodeID(i*2))
		}
		for i := 0; i < rng.Intn(8); i++ {
			b = append(b, dfg.NodeID(i*2+1))
		}
		prefer := func(x, y dfg.NodeID) int { return rng.Intn(3) - 1 }
		out := MergeOrders(a, b, prefer)
		if len(out) != len(a)+len(b) {
			return false
		}
		pos := map[dfg.NodeID]int{}
		for i, n := range out {
			pos[n] = i
		}
		for i := 0; i+1 < len(a); i++ {
			if pos[a[i]] > pos[a[i+1]] {
				return false
			}
		}
		for i := 0; i+1 < len(b); i++ {
			if pos[b[i]] > pos[b[i+1]] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestChainArcs(t *testing.T) {
	arcs := ChainArcs([]dfg.NodeID{4, 2, 7})
	if len(arcs) != 2 || arcs[0] != [2]dfg.NodeID{4, 2} || arcs[1] != [2]dfg.NodeID{2, 7} {
		t.Fatalf("ChainArcs = %v", arcs)
	}
	if ChainArcs(nil) != nil {
		t.Fatal("ChainArcs(nil) should be nil")
	}
}

func TestOrderByStep(t *testing.T) {
	g := dfg.Ex(8)
	p := NewProblem(g)
	s := mustASAP(t, p)
	var muls []dfg.NodeID
	for _, n := range g.Nodes() {
		if n.Kind == dfg.OpMul {
			muls = append(muls, n.ID)
		}
	}
	ord := OrderByStep(muls, s)
	for i := 0; i+1 < len(ord); i++ {
		si, sj := s.Step[ord[i]], s.Step[ord[i+1]]
		if si > sj {
			t.Fatalf("OrderByStep not sorted: %v", ord)
		}
	}
}

// Property: list scheduling with random bindings on random graphs always
// yields a verifiable schedule (or a clean latency error).
func TestListScheduleRandomGraphs(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randGraph(rng, 3+rng.Intn(20))
		p := NewProblem(g)
		// Random binding: ops of same kind share one of two modules.
		for _, n := range g.Nodes() {
			p.ModuleOf[n.ID] = int(n.Kind)*2 + rng.Intn(2)
		}
		s, err := p.List()
		if err != nil {
			return false
		}
		return p.Verify(s) == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func randGraph(rng *rand.Rand, nOps int) *dfg.Graph {
	g := dfg.New("rand", 8)
	pool := []dfg.ValueID{g.Input("i0"), g.Input("i1"), g.Input("i2")}
	kinds := []dfg.OpKind{dfg.OpAdd, dfg.OpSub, dfg.OpMul}
	for i := 0; i < nOps; i++ {
		k := kinds[rng.Intn(len(kinds))]
		a := pool[rng.Intn(len(pool))]
		b := pool[rng.Intn(len(pool))]
		pool = append(pool, g.Op(k, "", a, b))
	}
	for _, v := range g.Values() {
		if v.Kind == dfg.ValTemp && len(v.Uses) == 0 {
			g.MarkOutput(v.ID)
		}
	}
	return g
}

func peak(g *dfg.Graph, s Schedule, k dfg.OpKind) int {
	perStep := map[int]int{}
	for _, n := range g.Nodes() {
		if n.Kind == k {
			perStep[s.Step[n.ID]]++
		}
	}
	max := 0
	for _, c := range perStep {
		if c > max {
			max = c
		}
	}
	return max
}

func TestWeakArcsAllowSameStep(t *testing.T) {
	// Two independent ops with a weak arc may share a step; ASAP keeps
	// them together, and the weak arc forbids the reverse order.
	g := dfg.New("w", 8)
	a := g.Input("a")
	b := g.Input("b")
	t1 := g.Op(dfg.OpAdd, "t1", a, b)
	t2 := g.Op(dfg.OpSub, "t2", a, b)
	g.MarkOutput(t1)
	g.MarkOutput(t2)
	n1 := g.Value(t1).Def
	n2 := g.Value(t2).Def

	p := NewProblem(g)
	p.ExtraWeak = append(p.ExtraWeak, [2]dfg.NodeID{n1, n2})
	s, err := p.ASAP()
	if err != nil {
		t.Fatal(err)
	}
	if s.Step[n1] != 1 || s.Step[n2] != 1 {
		t.Errorf("weak arc should allow same step: %d %d", s.Step[n1], s.Step[n2])
	}
	if err := p.Verify(s); err != nil {
		t.Fatal(err)
	}
	// A schedule with n2 before n1 must be rejected.
	bad := s.Clone()
	bad.Step[n2] = 1
	bad.Step[n1] = 2
	bad.Len = 2
	if err := p.Verify(bad); err == nil {
		t.Fatal("weak arc violation not caught")
	}
}

func TestWeakArcsPushLater(t *testing.T) {
	// Weak pred at step 2 forces the successor to step >= 2.
	g := dfg.New("w2", 8)
	a := g.Input("a")
	b := g.Input("b")
	t1 := g.Op(dfg.OpAdd, "t1", a, b)
	t2 := g.Op(dfg.OpAdd, "t2", t1, b) // step 2 by data flow
	t3 := g.Op(dfg.OpSub, "t3", a, b)  // free
	g.MarkOutput(t2)
	g.MarkOutput(t3)
	n2 := g.Value(t2).Def
	n3 := g.Value(t3).Def
	p := NewProblem(g)
	p.ExtraWeak = append(p.ExtraWeak, [2]dfg.NodeID{n2, n3})
	s, err := p.ASAP()
	if err != nil {
		t.Fatal(err)
	}
	if s.Step[n3] < s.Step[n2] {
		t.Errorf("weak successor scheduled before its predecessor: %d < %d", s.Step[n3], s.Step[n2])
	}
	if err := p.Verify(s); err != nil {
		t.Fatal(err)
	}
}

func TestListWeakCascadeWithinStep(t *testing.T) {
	// A weak chain t1 -> t2 -> t3 of independent ops packs into one step
	// under list scheduling (the same-step cascade).
	g := dfg.New("w3", 8)
	a := g.Input("a")
	b := g.Input("b")
	ids := make([]dfg.NodeID, 3)
	for i := range ids {
		v := g.Op(dfg.OpAdd, "", a, b)
		g.MarkOutput(v)
		ids[i] = g.Value(v).Def
	}
	p := NewProblem(g)
	p.ExtraWeak = append(p.ExtraWeak, [2]dfg.NodeID{ids[0], ids[1]}, [2]dfg.NodeID{ids[1], ids[2]})
	s, err := p.List()
	if err != nil {
		t.Fatal(err)
	}
	if s.Len != 1 {
		t.Errorf("weak chain of independent ops needs 1 step, got %d", s.Len)
	}
	// With a module binding the chain serializes (distinct steps) while
	// still honouring the weak order.
	p2 := NewProblem(g)
	p2.ExtraWeak = p.ExtraWeak
	for _, id := range ids {
		p2.ModuleOf[id] = 0
	}
	s2, err := p2.List()
	if err != nil {
		t.Fatal(err)
	}
	if err := p2.Verify(s2); err != nil {
		t.Fatal(err)
	}
	if s2.Len != 3 {
		t.Errorf("bound weak chain needs 3 steps, got %d", s2.Len)
	}
	if !(s2.Step[ids[0]] <= s2.Step[ids[1]] && s2.Step[ids[1]] <= s2.Step[ids[2]]) {
		t.Errorf("weak order violated: %d %d %d", s2.Step[ids[0]], s2.Step[ids[1]], s2.Step[ids[2]])
	}
}

func TestWeakArcCycleWithStrictRejected(t *testing.T) {
	g := dfg.New("w4", 8)
	a := g.Input("a")
	b := g.Input("b")
	t1 := g.Op(dfg.OpAdd, "t1", a, b)
	t2 := g.Op(dfg.OpSub, "t2", a, b)
	g.MarkOutput(t1)
	g.MarkOutput(t2)
	n1 := g.Value(t1).Def
	n2 := g.Value(t2).Def
	p := NewProblem(g)
	p.Extra = append(p.Extra, [2]dfg.NodeID{n1, n2})
	p.ExtraWeak = append(p.ExtraWeak, [2]dfg.NodeID{n2, n1})
	if _, err := p.ASAP(); err == nil {
		t.Fatal("strict+weak cycle not rejected")
	}
}
