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
		return synthesizeSeparate(g, par, MethodApproach1, (*sched.Problem).FDS)
	case MethodApproach2:
		return synthesizeSeparate(g, par, MethodApproach2, (*sched.Problem).MobilityPath)
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

// synthesizeSeparate runs a phase-separated baseline: schedule at the
// ASAP length plus the slack with the given scheduler, then allocate.
// Approach 1 schedules force-directed [11] without testability
// consideration; Approach 2 schedules along mobility paths as Lee et al.
// [6,7] do, which accounts for the two testability rules. Both then
// allocate as Lee et al. [7] do: registers by the testability-modified
// left-edge algorithm, modules per class by left-edge packing.
func synthesizeSeparate(g *dfg.Graph, par Params, method string, schedule func(*sched.Problem, int, sched.ClassFunc) (sched.Schedule, error)) (*Result, error) {
	if err := validate.Graph(g); err != nil {
		return nil, err
	}
	prob := sched.NewProblem(g)
	asap, err := prob.ASAP()
	if err != nil {
		return nil, err
	}
	s, err := schedule(prob, asap.Len+par.Slack, par.class())
	if err != nil {
		return nil, err
	}
	life := alloc.Lifetimes(g, s)
	regOf, n := alloc.RegisterLeftEdgeTestable(g, life)
	a := alloc.BindModules(g, s, par.class(), regOf, n)
	prob.MaxLen = s.Len
	copy(prob.ModuleOf, a.ModuleOf)
	st := &state{g: g, prob: prob, s: s, a: a, par: par, sc: newScratch(par)}
	return st.finish(method, nil)
}
