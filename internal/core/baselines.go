package core

import (
	"context"
	"fmt"

	"repro/internal/alloc"
	"repro/internal/dfg"
	"repro/internal/sched"
	"repro/internal/validate"
)

// Method names used by the experiment harness, matching the rows of the
// paper's Tables 1-3.
const (
	MethodCAMAD     = "camad"
	MethodApproach1 = "approach1"
	MethodApproach2 = "approach2"
	MethodOurs      = "ours"
)

// Methods lists the four synthesis flows in table order.
func Methods() []string {
	return []string{MethodCAMAD, MethodApproach1, MethodApproach2, MethodOurs}
}

// RunCtx dispatches a synthesis flow by method name under a context. The
// iterative flows (ours, CAMAD) degrade to partial results on
// cancellation; the phase-separated baselines run to completion (their
// single schedule-then-allocate pass has no useful intermediate state).
func RunCtx(ctx context.Context, method string, g *dfg.Graph, par Params) (*Result, error) {
	if err := dfg.CheckWidth(par.Width); err != nil {
		return nil, err
	}
	switch method {
	case MethodCAMAD:
		return synthesizeCAMADCtx(ctx, g, par)
	case MethodApproach1:
		return SynthesizeApproach1(g, par)
	case MethodApproach2:
		return SynthesizeApproach2(g, par)
	case MethodOurs:
		return SynthesizeCtx(ctx, g, par)
	default:
		return nil, fmt.Errorf("core: unknown method %q", method)
	}
}

// synthesizeCAMADCtx models the CAMAD high-level synthesis system [14]
// without testability consideration: the same iterative merger engine, but
// candidate pairs are selected by connectivity/closeness (minimizing
// interconnect and multiplexers), rescheduling appends execution orders
// without the SR rules, additions, subtractions and comparisons pool
// into combined ALUs (the "±" modules of the tables), and only modules
// merge: the paper's CAMAD rows keep one variable per register (R: a,
// R: b, ...). The last two rules are CAMAD's own, set here and nowhere
// else.
func synthesizeCAMADCtx(ctx context.Context, g *dfg.Graph, par Params) (*Result, error) {
	par.Selection = SelectConnectivity
	par.Reschedule = RescheduleAppend
	par.camad = true
	r, err := SynthesizeCtx(ctx, g, par)
	if err != nil {
		return nil, err
	}
	r.Method = MethodCAMAD
	return r, nil
}

// separateAllocate builds the phase-separated flows of Lee et al.: given a
// finished schedule, registers are allocated with the testability-modified
// left-edge algorithm and modules are bound per class by left-edge packing.
func separateAllocate(g *dfg.Graph, par Params, method string, s sched.Schedule) (*Result, error) {
	life := alloc.Lifetimes(g, s)
	regOf, n := alloc.RegisterLeftEdgeTestable(g, life)
	a := alloc.BindModules(g, s, par.class(), regOf, n)
	prob := sched.NewProblem(g)
	prob.MaxLen = s.Len
	copy(prob.ModuleOf, a.ModuleOf)
	st := &state{g: g, prob: prob, s: s, a: a, par: par, sc: newScratch(par)}
	if err := st.build(); err != nil {
		return nil, err
	}
	res, err := st.finish(method, nil)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// SynthesizeApproach1 is the paper's Approach 1 baseline: force-directed
// scheduling [11] without testability consideration, followed by the same
// allocation as Approach 2 [7].
func SynthesizeApproach1(g *dfg.Graph, par Params) (*Result, error) {
	if err := validate.Graph(g); err != nil {
		return nil, err
	}
	prob := sched.NewProblem(g)
	asap, err := prob.ASAP()
	if err != nil {
		return nil, err
	}
	s, err := prob.FDS(asap.Len+par.Slack, par.class())
	if err != nil {
		return nil, err
	}
	return separateAllocate(g, par, MethodApproach1, s)
}

// SynthesizeApproach2 is the paper's Approach 2 baseline: the
// mobility-path scheduling of Lee et al. [6,7], which accounts for the two
// testability rules, followed by modified left-edge allocation.
func SynthesizeApproach2(g *dfg.Graph, par Params) (*Result, error) {
	if err := validate.Graph(g); err != nil {
		return nil, err
	}
	prob := sched.NewProblem(g)
	asap, err := prob.ASAP()
	if err != nil {
		return nil, err
	}
	s, err := prob.MobilityPath(asap.Len+par.Slack, par.class())
	if err != nil {
		return nil, err
	}
	return separateAllocate(g, par, MethodApproach2, s)
}
