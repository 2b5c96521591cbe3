package petri

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/exec"
)

// TestReachabilityBudgets is the table-driven deadline/budget test for the
// reachability exploration: each row pairs a context state with a node
// budget and names the error the caller must observe, including the
// zero-budget and already-cancelled corner cases.
func TestReachabilityBudgets(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Hour))
	defer cancel2()

	tests := []struct {
		name     string
		ctx      context.Context
		maxNodes int
		wantErr  error // matched with errors.Is when non-nil
		want     exec.Status
	}{
		{name: "success", ctx: context.Background(), maxNodes: 64, want: exec.StatusComplete},
		{name: "exact budget", ctx: context.Background(), maxNodes: 5, want: exec.StatusComplete},
		{name: "zero budget", ctx: context.Background(), maxNodes: 0, want: exec.StatusPartial},
		{name: "budget one short", ctx: context.Background(), maxNodes: 4, want: exec.StatusPartial},
		{name: "already cancelled", ctx: cancelled, maxNodes: 64, wantErr: context.Canceled},
		{name: "deadline expired", ctx: expired, maxNodes: 64, wantErr: context.DeadlineExceeded},
		{name: "cancelled beats zero budget", ctx: cancelled, maxNodes: 0, wantErr: context.Canceled},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			n, _ := Chain("chain", 5)
			r, err := n.Reachability(tc.ctx, tc.maxNodes)
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("err = %v, want %v", err, tc.wantErr)
				}
				if r != nil {
					t.Fatalf("error path returned %d nodes alongside error", len(r.Nodes))
				}
				return
			}
			if err != nil {
				t.Fatalf("Reachability: %v", err)
			}
			if r.Status != tc.want {
				t.Fatalf("status %v, want %v", r.Status, tc.want)
			}
			if tc.want == exec.StatusComplete && len(r.Nodes) != 5 {
				t.Fatalf("got %d nodes, want 5", len(r.Nodes))
			}
			if tc.want == exec.StatusPartial && len(r.Nodes) <= tc.maxNodes {
				t.Fatalf("partial prefix of %d nodes does not pass the budget %d", len(r.Nodes), tc.maxNodes)
			}
		})
	}
}

// TestReachabilityCtxMidExploration cancels while the frontier is still
// growing: a loop net keeps the exploration alive long enough that the
// per-iteration check observes the cancellation.
func TestReachabilityCtxMidExploration(t *testing.T) {
	n, _, _ := Loop("loop", 6, "c")
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the check sits at the top of every expansion, so index 0 sees it
	if _, err := n.Reachability(ctx, 1000); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestExecPanicBecomesExecError: a malformed net — two unguarded
// transitions conflicting on one place, which Validate would reject —
// drives fire into its internal panic under maximal-step semantics. The
// Exec boundary must surface that as a typed *exec.ExecError, not unwind.
func TestExecPanicBecomesExecError(t *testing.T) {
	n := NewNet("conflict")
	a := n.AddPlace("a", 0)
	b := n.AddPlace("b", 1)
	c := n.AddPlace("c", 1)
	n.MarkInitial(a)
	n.MarkFinal(b)
	n.AddTransition("t1", []PlaceID{a}, []PlaceID{b})
	n.AddTransition("t2", []PlaceID{a}, []PlaceID{c})
	if err := n.Validate(); err == nil {
		t.Fatal("conflicting net unexpectedly validates; test premise broken")
	}
	_, err := n.Exec(nil, 10)
	if err == nil {
		t.Fatal("Exec of conflicting net succeeded, want ExecError")
	}
	ee, ok := exec.AsExecError(err)
	if !ok {
		t.Fatalf("err = %v (%T), want *exec.ExecError", err, err)
	}
	if ee.Stage != "petri.exec" {
		t.Errorf("Stage = %q, want petri.exec", ee.Stage)
	}
	if !strings.Contains(err.Error(), "without token") {
		t.Errorf("err = %q, want the fire panic message", err)
	}
	if len(ee.Stack) == 0 {
		t.Error("ExecError carries no stack")
	}
}

// TestExecNormalPathUnaffected: the panic guard must not perturb ordinary
// execution results.
func TestExecNormalPathUnaffected(t *testing.T) {
	n, _ := Chain("chain", 4)
	steps, err := n.Exec(nil, 100)
	if err != nil {
		t.Fatal(err)
	}
	if steps != 4 {
		t.Fatalf("steps = %d, want 4", steps)
	}
}

// TestReachabilityPartialOnBudget: the Reach-returning API makes budget
// exhaustion a first-class partial outcome — no error, the discovered
// prefix intact (including unexpanded frontier nodes), every edge index
// valid within it — while a complete exploration reports StatusComplete.
func TestReachabilityPartialOnBudget(t *testing.T) {
	n, _ := Chain("chain", 30)
	full, err := n.Reachability(context.Background(), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if full.Status != exec.StatusComplete || full.Exhausted != "" {
		t.Fatalf("complete exploration: status %v, exhausted %q", full.Status, full.Exhausted)
	}
	if len(full.Nodes) != 30 {
		t.Fatalf("complete exploration found %d nodes, want 30", len(full.Nodes))
	}

	part, err := n.Reachability(context.Background(), 10)
	if err != nil {
		t.Fatalf("budget exhaustion must be a partial result, not an error: %v", err)
	}
	if part.Status != exec.StatusPartial || part.Exhausted != exec.BudgetReachNodes {
		t.Fatalf("partial exploration: status %v, exhausted %q", part.Status, part.Exhausted)
	}
	if len(part.Nodes) <= 10 || len(part.Nodes) >= 30 {
		t.Fatalf("partial exploration returned %d nodes; want the discovered prefix just past the budget", len(part.Nodes))
	}
	for i, nd := range part.Nodes {
		if nd.Key != full.Nodes[i].Key {
			t.Fatalf("partial node %d is not a prefix of the complete exploration", i)
		}
		for _, e := range nd.Edges {
			if e.To < 0 || e.To >= len(part.Nodes) {
				t.Fatalf("partial node %d has edge to %d, outside the returned set of %d", i, e.To, len(part.Nodes))
			}
		}
	}

	// Cancellation still surfaces as an error, not a partial result.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := n.Reachability(ctx, 1000); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Reachability: err = %v, want context.Canceled", err)
	}
}
