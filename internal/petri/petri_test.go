package petri

import (
	"context"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/exec"
)

func TestChainExec(t *testing.T) {
	for steps := 1; steps <= 10; steps++ {
		n, ids := Chain("c", steps)
		if err := n.Validate(); err != nil {
			t.Fatalf("steps=%d: %v", steps, err)
		}
		if len(ids) != steps {
			t.Fatalf("steps=%d: got %d places", steps, len(ids))
		}
		got, err := n.Exec(nil, 100)
		if err != nil {
			t.Fatalf("steps=%d: %v", steps, err)
		}
		if got != steps {
			t.Errorf("chain of %d steps executed in %d", steps, got)
		}
	}
}

func TestChainCriticalPathEqualsLength(t *testing.T) {
	prop := func(k uint8) bool {
		steps := int(k%20) + 1
		n, _ := Chain("c", steps)
		cp, err := n.CriticalPath(1, 200)
		return err == nil && cp == steps
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestLoopExec(t *testing.T) {
	n, _, _ := Loop("l", 3, "c")
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	// Loop twice (guard true twice, then false): three body passes.
	oracle := func(sig string, occ int) bool { return occ < 2 }
	got, err := n.Exec(oracle, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got != 9 {
		t.Errorf("3-step body, 3 passes: got %d steps, want 9", got)
	}
}

func TestLoopCriticalPath(t *testing.T) {
	n, _, _ := Loop("l", 4, "c")
	cp, err := n.CriticalPath(2, 200)
	if err != nil {
		t.Fatal(err)
	}
	// loopBound=2 back-edge firings -> 3 body passes of 4 steps.
	if cp != 12 {
		t.Errorf("critical path = %d, want 12", cp)
	}
}

func TestForkJoinExec(t *testing.T) {
	// Fork into a 1-step and a 3-step branch, join: time = 1 + max(1,3) + 1.
	n := NewNet("fj")
	start := n.AddPlace("start", 1)
	a := n.AddPlace("a", 1)
	b1 := n.AddPlace("b1", 1)
	b2 := n.AddPlace("b2", 1)
	b3 := n.AddPlace("b3", 1)
	end := n.AddPlace("end", 1)
	n.MarkInitial(start)
	n.MarkFinal(end)
	n.AddTransition("fork", []PlaceID{start}, []PlaceID{a, b1})
	n.AddTransition("", []PlaceID{b1}, []PlaceID{b2})
	n.AddTransition("", []PlaceID{b2}, []PlaceID{b3})
	n.AddTransition("join", []PlaceID{a, b3}, []PlaceID{end})
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	got, err := n.Exec(nil, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got != 5 {
		t.Errorf("fork/join executed in %d, want 5", got)
	}
}

func TestValidateErrors(t *testing.T) {
	n := NewNet("bad")
	p := n.AddPlace("p", 1)
	if err := n.Validate(); err == nil || !strings.Contains(err.Error(), "initial") {
		t.Errorf("expected missing-initial error, got %v", err)
	}
	n.MarkInitial(p)
	if err := n.Validate(); err == nil || !strings.Contains(err.Error(), "final") {
		t.Errorf("expected missing-final error, got %v", err)
	}
	n.MarkFinal(p)
	if err := n.Validate(); err != nil {
		t.Errorf("single-place net should validate: %v", err)
	}

	// Conflicting unguarded transitions on one place.
	q := n.AddPlace("q", 1)
	r := n.AddPlace("r", 1)
	n.AddTransition("t1", []PlaceID{p}, []PlaceID{q})
	n.AddTransition("t2", []PlaceID{p}, []PlaceID{r})
	if err := n.Validate(); err == nil || !strings.Contains(err.Error(), "conflict") {
		t.Errorf("expected conflict error, got %v", err)
	}
}

func TestValidateComplementaryGuardsOK(t *testing.T) {
	n := NewNet("g")
	p := n.AddPlace("p", 1)
	q := n.AddPlace("q", 1)
	r := n.AddPlace("r", 1)
	n.MarkInitial(p)
	n.MarkFinal(q)
	n.MarkFinal(r)
	n.AddGuarded("yes", []PlaceID{p}, []PlaceID{q}, "c", true)
	n.AddGuarded("no", []PlaceID{p}, []PlaceID{r}, "c", false)
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestExecLivelockDetected(t *testing.T) {
	// A net whose final marking is unreachable must report an error.
	n := NewNet("dead")
	p := n.AddPlace("p", 1)
	q := n.AddPlace("q", 1)
	n.MarkInitial(p)
	n.MarkFinal(q)
	// No transition connects p to q.
	if _, err := n.Exec(nil, 50); err == nil {
		t.Fatal("expected timeout error")
	}
}

func TestReachabilityGraphChain(t *testing.T) {
	n, _ := Chain("c", 5)
	r, err := n.Reachability(context.Background(), 100)
	if err != nil {
		t.Fatal(err)
	}
	nodes := r.Nodes
	if r.Status != exec.StatusComplete {
		t.Errorf("status %v, want complete", r.Status)
	}
	if len(nodes) != 5 {
		t.Errorf("chain of 5 has %d markings, want 5", len(nodes))
	}
	finals := 0
	for _, nd := range nodes {
		finals += btoi(nd.Final)
	}
	if finals != 1 {
		t.Errorf("%d final markings, want 1", finals)
	}
}

func TestReachabilityGraphLoopHasBackEdge(t *testing.T) {
	n, _, _ := Loop("l", 3, "c")
	r, err := n.Reachability(context.Background(), 100)
	if err != nil {
		t.Fatal(err)
	}
	hasBack := false
	for _, nd := range r.Nodes {
		for i := range nd.Edges {
			if nd.BackEdge[i] {
				hasBack = true
			}
		}
	}
	if !hasBack {
		t.Error("loop net must expose a back edge in its reachability graph")
	}
}

func TestReachabilityGraphUnsafeDetected(t *testing.T) {
	n := NewNet("unsafe")
	p := n.AddPlace("p", 1)
	q := n.AddPlace("q", 1)
	n.MarkInitial(p)
	n.MarkInitial(q)
	n.MarkFinal(q)
	n.AddTransition("dup", []PlaceID{p}, []PlaceID{q}) // q already marked
	if _, err := n.Reachability(context.Background(), 100); err == nil {
		t.Fatal("expected unsafety error")
	}
}

func TestReachabilityGraphBound(t *testing.T) {
	n, _ := Chain("c", 50)
	r, err := n.Reachability(context.Background(), 10)
	if err != nil {
		t.Fatalf("bound exceeded must be a partial result, not an error: %v", err)
	}
	if r.Status != exec.StatusPartial || r.Exhausted != exec.BudgetReachNodes {
		t.Fatalf("status %v/%q, want partial on %s", r.Status, r.Exhausted, exec.BudgetReachNodes)
	}
	if len(r.Nodes) <= 10 || len(r.Nodes) >= 50 {
		t.Fatalf("%d nodes, want the prefix just past the bound", len(r.Nodes))
	}
}

func TestCriticalPathGuardBranch(t *testing.T) {
	// Branch: short path 1 extra step, long path 3 extra steps. Critical
	// path must take the long branch.
	n := NewNet("br")
	p := n.AddPlace("p", 1)
	s1 := n.AddPlace("s1", 1)
	l1 := n.AddPlace("l1", 1)
	l2 := n.AddPlace("l2", 1)
	l3 := n.AddPlace("l3", 1)
	end := n.AddPlace("end", 0)
	n.MarkInitial(p)
	n.MarkFinal(end)
	n.AddGuarded("short", []PlaceID{p}, []PlaceID{s1}, "c", true)
	n.AddGuarded("long", []PlaceID{p}, []PlaceID{l1}, "c", false)
	n.AddTransition("", []PlaceID{l1}, []PlaceID{l2})
	n.AddTransition("", []PlaceID{l2}, []PlaceID{l3})
	n.AddTransition("", []PlaceID{s1}, []PlaceID{end})
	n.AddTransition("", []PlaceID{l3}, []PlaceID{end})
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	cp, err := n.CriticalPath(1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if cp != 4 {
		t.Errorf("critical path = %d, want 4 (1 + long branch of 3)", cp)
	}
}

func TestMarkingKeyDeterministic(t *testing.T) {
	n, _ := Chain("c", 3)
	m := n.InitialMarking()
	if m.Key() != m.Key() {
		t.Fatal("marking key must be deterministic")
	}
	if !m.Has(0) || m.Has(1) {
		t.Fatal("initial marking wrong")
	}
	if got := m.Places(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("Places() = %v", got)
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func TestDotRendering(t *testing.T) {
	n, _, _ := Loop("l", 3, "cond")
	d := n.Dot()
	for _, want := range []string{"digraph", "peripheries=2", "cond", "->"} {
		if !strings.Contains(d, want) {
			t.Errorf("petri dot missing %q", want)
		}
	}
}
