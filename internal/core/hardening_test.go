package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/dfg"
	"repro/internal/exec"
)

// TestSynthesizeCtxPartialOnDeadCtx: with the context already cancelled,
// SynthesizeCtx must still return a valid, buildable design — the initial
// (unmerged) state — tagged partial, not an error.
func TestSynthesizeCtxPartialOnDeadCtx(t *testing.T) {
	g, err := dfg.ByName(dfg.BenchTseng, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		par := DefaultParams(4)
		par.Workers = workers
		r, err := SynthesizeCtx(ctx, g, par)
		if err != nil {
			t.Fatalf("workers=%d: dead context errored: %v", workers, err)
		}
		if r.Status != exec.StatusPartial || r.Exhausted != exec.BudgetDeadline {
			t.Fatalf("workers=%d: status %v/%q, want partial/deadline", workers, r.Status, r.Exhausted)
		}
		if r.Design == nil || r.ExecTime <= 0 || r.Area.Total <= 0 {
			t.Errorf("workers=%d: partial result is not a valid design: %+v", workers, r)
		}
		if len(r.Trace) != 0 {
			t.Errorf("workers=%d: mergers committed under a dead context: %v", workers, r.Trace)
		}
	}
}

// TestSynthesizeCtxCompleteMatchesSynthesize: an uncancelled context must
// not perturb the result.
func TestSynthesizeCtxCompleteMatchesSynthesize(t *testing.T) {
	g, err := dfg.ByName(dfg.BenchEx, 4)
	if err != nil {
		t.Fatal(err)
	}
	par := DefaultParams(4)
	par.Workers = 1
	plain, err := SynthesizeCtx(context.Background(), g, par)
	if err != nil {
		t.Fatal(err)
	}
	withCtx, err := SynthesizeCtx(context.Background(), g, par)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Status != exec.StatusComplete || withCtx.Status != exec.StatusComplete {
		t.Fatalf("statuses %v / %v, want complete", plain.Status, withCtx.Status)
	}
	if plain.ExecTime != withCtx.ExecTime || plain.Area.Total != withCtx.Area.Total ||
		len(plain.Trace) != len(withCtx.Trace) {
		t.Errorf("context-threaded run diverges: %+v vs %+v", plain, withCtx)
	}
}

// TestRunCtxDispatch covers the ctx dispatcher for each method plus the
// partial tagging of the CAMAD flow.
func TestRunCtxDispatch(t *testing.T) {
	g, err := dfg.ByName(dfg.BenchEx, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, method := range Methods() {
		r, err := RunCtx(context.Background(), method, g, DefaultParams(4))
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if r.Method != method || r.Status != exec.StatusComplete {
			t.Errorf("%s: got method %q status %v", method, r.Method, r.Status)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r, err := RunCtx(ctx, MethodCAMAD, g, DefaultParams(4))
	if err != nil {
		t.Fatalf("cancelled camad errored: %v", err)
	}
	if r.Status != exec.StatusPartial || r.Method != MethodCAMAD {
		t.Errorf("cancelled camad: %v/%q", r.Status, r.Method)
	}
	if _, err := RunCtx(context.Background(), "nonsense", g, DefaultParams(4)); err == nil {
		t.Error("unknown method accepted")
	}
}

// TestEmptyBehaviourRejected: a behaviour with no operations has no control
// steps, so no flow can build a design for it. Every flow, looped or not,
// must refuse it up front with an error naming the cause, rather than fail
// inside the control part or report an execution time of 0.
func TestEmptyBehaviourRejected(t *testing.T) {
	g := dfg.New("empty", 4)
	g.MarkOutput(g.Input("a"))
	for _, loop := range []string{"", "a"} {
		for _, method := range Methods() {
			par := DefaultParams(4)
			par.LoopSignal = loop
			r, err := RunCtx(context.Background(), method, g, par)
			if err == nil || !strings.Contains(err.Error(), "has no operations") {
				t.Errorf("%s loop=%q: got result %v, error %v; want a no-operations error", method, loop, r, err)
			}
		}
	}
}
