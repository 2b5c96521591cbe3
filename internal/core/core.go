// Package core implements the paper's primary contribution: the high-level
// test synthesis algorithm that integrates operation scheduling and data
// path allocation (Algorithm 1). Starting from a default schedule and a
// one-to-one allocation, it iteratively selects k candidate pairs of
// modules or registers under the controllability/observability balance
// principle, estimates the incremental execution-time cost ΔE (control
// part critical path) and hardware cost ΔH (floorplan area) of each,
// merges the pair with the smallest ΔC = α·ΔE + β·ΔH, and reschedules with
// the merge-sort transformation guided by the SR1/SR2 testability rules.
//
// The package also provides the three reference flows the paper compares
// against: the CAMAD-style connectivity-driven synthesis [14], Approach 1
// (force-directed scheduling [11] + testable left-edge allocation [7]) and
// Approach 2 (mobility-path scheduling + testable left-edge allocation
// [6,7]).
package core

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/alloc"
	"repro/internal/cost"
	"repro/internal/dfg"
	"repro/internal/etpn"
	"repro/internal/exec"
	"repro/internal/parallel"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/testability"
	"repro/internal/validate"
)

// SelectionPolicy chooses how candidate merge pairs are ranked.
type SelectionPolicy int

// Selection policies.
const (
	// SelectBalance ranks pairs by the controllability/observability
	// balance principle (the paper's policy).
	SelectBalance SelectionPolicy = iota
	// SelectConnectivity ranks pairs by shared connections (conventional
	// allocation; used by the CAMAD baseline and the selection ablation).
	SelectConnectivity
)

// ReschedulePolicy chooses how the scheduling constraints imposed by a
// merger are realized.
type ReschedulePolicy int

// Reschedule policies.
const (
	// RescheduleMergeSort is the paper's merge-sort transformation with the
	// SR1/SR2 controllability/observability enhancement strategy.
	RescheduleMergeSort ReschedulePolicy = iota
	// RescheduleAppend serializes the second sequence after the first
	// without testability guidance (the rescheduling ablation).
	RescheduleAppend
	// RescheduleFrozen forbids moving any operation: a merger is feasible
	// only if the current schedule already satisfies its constraints (the
	// phase-separated ablation: allocation cannot influence scheduling).
	RescheduleFrozen
)

// LoopBound is the loop iteration count the critical-path estimate
// assumes for looping behaviours: the control part's execution time E
// counts LoopBound back-edge firings plus the final pass that exits.
const LoopBound = 4

// Params configures a synthesis run: the paper's (k, α, β), the latency
// slack and the bit width, the behaviour's loop signal, the library, the
// two algorithm-variant selectors of the ablations, and operational knobs
// that never change a result. The rules that make CAMAD differ from
// Algorithm 1 belong to that method and are set only by it.
type Params struct {
	// K is the number of candidate pairs examined per iteration (paper's
	// k): small k puts more weight on the testability ranking.
	K int
	// Alpha weights ΔE and Beta weights ΔH in ΔC = α·ΔE + β·ΔH.
	Alpha, Beta float64
	// Slack is the number of control steps the schedule may grow beyond
	// the initial (ASAP) length. The paper's area-optimized experiments
	// correspond to Slack 0.
	Slack int
	// Width is the data-path bit width (4, 8 or 16 in the paper).
	Width int
	// LoopSignal names the condition output closing the behavioural loop;
	// empty for straight-line behaviours.
	LoopSignal string
	// Lib is the module library for ΔH (cost.DefaultLibrary when nil).
	Lib *cost.Library
	// Selection and Reschedule select the algorithm variant; the zero
	// values are the paper's algorithm.
	Selection  SelectionPolicy
	Reschedule ReschedulePolicy
	// Workers bounds the goroutines used for the tie-policy exploration
	// (0 = one per CPU, 1 = sequential). The winning design is selected by
	// a fixed-order reduction over the policy results, so the outcome is
	// identical at every worker count.
	Workers int
	// Stats, when non-nil, collects per-stage counters and timers
	// (candidate evaluations, cache hits/misses, time spent in
	// scheduling/floorplanning/testability). Purely
	// observational: it never influences results.
	Stats *stats.Stats
	// NoCache disables the fingerprint-keyed evaluation cache. It exists
	// for the cache-equivalence tests and benchmarks; results are
	// identical either way.
	NoCache bool
	// camad applies CAMAD's own rules (synthesizeCAMADCtx sets it):
	// additions, subtractions and comparisons pool into combined ALUs
	// (sched.ALUClass instead of sched.ExactClass), and merging is
	// restricted to functional modules, leaving every value in its own
	// register — the allocation of the paper's CAMAD rows (R: a, R: b, ...).
	camad bool
}

// DefaultParams returns the parameter set (k,α,β) = (3,2,1) the paper uses
// for 4-bit runs.
func DefaultParams(width int) Params {
	return Params{
		K: 3, Alpha: 2, Beta: 1,
		Slack: 0, Width: width,
	}
}

func (p Params) class() sched.ClassFunc {
	if p.camad {
		return sched.ALUClass
	}
	return sched.ExactClass
}

func (p Params) lib() *cost.Library {
	if p.Lib == nil {
		return cost.DefaultLibrary()
	}
	return p.Lib
}

// Result is a synthesis result. When Status is exec.StatusPartial the
// merger loop was cut short by a deadline: the design is the best state
// committed by then — a valid, buildable design, just with fewer mergers
// applied than an uninterrupted run would have committed.
type Result struct {
	Method string
	Design *etpn.Design
	// ExecTime is the control-part critical path in control steps.
	ExecTime int
	// Area is the floorplan-based hardware cost estimate.
	Area cost.Estimate
	// Mux summarizes required multiplexing.
	Mux cost.MuxStats
	// Metrics is the final testability analysis.
	Metrics *testability.Metrics
	// Trace logs one line per committed merger.
	Trace []string
	// Status is StatusComplete for a finished merger loop, StatusPartial
	// when the budget named by Exhausted cut it short.
	Status exec.Status
	// Exhausted names the exhausted budget ("" when complete).
	Exhausted string
}

// state carries the evolving design through the synthesis loop.
type state struct {
	g     *dfg.Graph
	prob  *sched.Problem
	s     sched.Schedule
	a     *alloc.Allocation
	life  alloc.Life
	par   Params
	execT int
	area  cost.Estimate
	mux   cost.MuxStats
	// cache memoizes expensive evaluations across the whole SynthesizeCtx
	// call (nil disables it); fp is the canonical fingerprint of the
	// current (schedule, allocation) pair, valid after build.
	cache *evalCache
	fp    Fingerprint
	// base is prob frozen for the overlay solves of the candidate merge
	// orders, compiled on first use by frozen(); nil in a clone.
	base *sched.Base
	// sc is the working memory of the run that owns the state, shared
	// with every state cloned from it.
	sc *scratch
}

// scratch is the reusable working memory of one synthesizeOnce call (or
// one baseline run): the cost estimator, a node numbering, the wiring a
// testability analysis reads, the two candidate rankings, the
// per-register module lists of the register ranking, the merged module
// binding a module merger's orders are list-scheduled under, the merge
// orders, and the merge-order arcs with the register values they are
// built from. It belongs to one goroutine and lives no longer than the
// call.
type scratch struct {
	est              *cost.Estimator
	nodes            etpn.Numbering
	wiring           etpn.Wiring
	mods, regs       ranking
	readers, writers [][]int
	bind             []int
	order            []dfg.NodeID
	strict, weak     [][2]dfg.NodeID
	vals             []dfg.ValueID
}

func newScratch(par Params) *scratch {
	return &scratch{est: cost.NewEstimator(par.lib(), par.Width)}
}

// build refreshes lifetimes, execution time, area and multiplexing from
// the current schedule and allocation. With caching enabled, a state
// whose (schedule, allocation) fingerprint was evaluated before — by any
// tie policy — reuses the memoized costs; only successful builds are
// cached, so a hit soundly skips allocation verification too. A miss
// verifies the allocation and costs it from the bindings (cost.Estimator),
// running etpn.Build's checks but deriving no design. Neither path
// derives one: only finish builds a design, and most states are
// candidates that are costed and thrown away. The cache keeps no design
// either: designs would hold most of a long run's memory.
func (st *state) build() error {
	st.life = alloc.Lifetimes(st.g, st.s)
	if st.cache.enabled() {
		st.fp = stateFingerprint(st)
		if e, hit := st.cache.lookupBuild(st.fp); hit {
			st.execT, st.area, st.mux = e.exec, e.area, e.mux
			return nil
		}
	}
	if err := st.a.Verify(st.g, st.s, st.par.class(), st.life); err != nil {
		return err
	}
	start := time.Now()
	area, mux, err := st.sc.est.Estimate(st.g, st.s, st.a, st.life, st.par.LoopSignal)
	st.par.Stats.Since("time.floorplan", start)
	if err != nil {
		return err
	}
	st.execT = etpn.ExecutionTime(st.s, st.par.LoopSignal, LoopBound)
	st.area, st.mux = area, mux
	st.cache.storeBuild(st.fp, buildEntry{exec: st.execT, area: st.area, mux: st.mux})
	return nil
}

// design builds the ETPN design of the current schedule and allocation
// for finish; core.designs counts the builds. It cannot fail after a
// successful build — build ran the checks etpn.Build runs, on this state
// or on one with the same fingerprint, and Build is a pure function of
// what the fingerprint encodes — but an error is returned, never assumed
// away.
func (st *state) design() (*etpn.Design, error) {
	d, err := etpn.Build(st.g, st.s, st.a, st.life, st.par.LoopSignal)
	if err != nil {
		return nil, err
	}
	st.par.Stats.Add("core.designs", 1)
	return d, nil
}

// analyze returns the testability analysis of the current schedule and
// allocation, memoized by the state fingerprint: both register-merge
// orders of applyRegMerge frequently produce identical data paths, and
// the committed winner of one iteration is re-analyzed at the top of the
// next — each repeat is a hit. A miss derives the state's wiring into the
// scratch, running etpn.Build's checks, and analyses it without a design;
// time.testability times the analysis alone.
func (st *state) analyze() (analysis, error) {
	if e, ok := st.cache.lookupMetrics(st.fp); ok {
		return e, nil
	}
	w := &st.sc.wiring
	if err := w.Derive(st.g, st.s, st.a, st.life, st.par.LoopSignal); err != nil {
		return analysis{}, err
	}
	w.Index()
	start := time.Now()
	m := testability.AnalyzeWiring(w, nil)
	st.par.Stats.Since("time.testability", start)
	e := analysis{m: m, regDepth: meanRegSeqDepth(&w.Numbering, st.a, m)}
	if analyzed != nil {
		analyzed(st, e)
	}
	st.cache.storeMetrics(st.fp, e)
	return e, nil
}

// analyzed is a test hook: when set, every analysis a miss computes is
// passed to it with the state analysed.
var analyzed func(st *state, e analysis)

// clone copies the schedule, allocation and problem for a tentative
// merger.
func (st *state) clone() *state {
	c := *st
	c.prob = st.prob.Clone()
	c.s = st.s.Clone()
	c.a = st.a.Clone()
	c.base = nil
	return &c
}

// frozen returns st's problem compiled once as the base that every
// candidate merge order of an iteration is list-scheduled against.
func (st *state) frozen() *sched.Base {
	if st.base == nil {
		st.base = st.prob.Freeze()
	}
	return st.base
}

// recompileOrders is a test hook: when set, no merge order is rejected
// before cloning, and each is list-scheduled on its clone's own freshly
// compiled problem, as before the compiled base existed.
var recompileOrders = false

// initialState performs step 1 of Algorithm 1: a simple default
// scheduling (ASAP) and allocation (one node per operation and value).
// The cache, shared by every tie policy of one SynthesizeCtx call, may be
// nil to disable memoization.
func initialState(g *dfg.Graph, par Params, cache *evalCache) (*state, error) {
	if err := validate.Graph(g); err != nil {
		return nil, err
	}
	prob := sched.NewProblem(g)
	s, err := prob.ASAP()
	if err != nil {
		return nil, err
	}
	prob.MaxLen = s.Len + par.Slack
	life := alloc.Lifetimes(g, s)
	a := alloc.Default(g, par.class(), life)
	// Bind the problem's module constraints to the allocation.
	copy(prob.ModuleOf, a.ModuleOf)
	st := &state{g: g, prob: prob, s: s, a: a, par: par, cache: cache, sc: newScratch(par)}
	if err := st.build(); err != nil {
		return nil, err
	}
	return st, nil
}

// candidate is a potential merger.
type candidate struct {
	isModule bool
	i, j     int // allocation ids
	score    float64
}

// before is the ranking order: best score first, then pair (i, j)
// ascending, the order candidates are generated in.
func before(x, y candidate) bool {
	switch {
	case x.score > y.score:
		return true
	case y.score > x.score:
		return false
	case x.i != y.i:
		return x.i < y.i
	}
	return x.j < y.j
}

// ranking draws candidates of one kind best first, in the order before
// defines, from a binary heap. The merger loop reads them in blocks of k
// from the top and usually commits within the first block, so ordering
// the whole list would be wasted. The buffers are reused across
// iterations.
type ranking struct {
	heap, block []candidate
}

// rankHook is a test hook: when set, rankCandidates passes it every list
// it ranks, in generation order, before ordering it.
var rankHook func([]candidate)

// order arranges the candidates in r.heap as a heap.
func (r *ranking) order() {
	for i := len(r.heap)/2 - 1; i >= 0; i-- {
		r.down(i)
	}
}

// next removes the best k candidates left and returns them best first;
// the block is valid until the next call.
func (r *ranking) next(k int) []candidate {
	r.block = r.block[:0]
	for len(r.block) < k && len(r.heap) > 0 {
		h := r.heap
		r.block = append(r.block, h[0])
		last := len(h) - 1
		h[0] = h[last]
		r.heap = h[:last]
		r.down(0)
	}
	return r.block
}

// down restores the heap below index i.
func (r *ranking) down(i int) {
	h := r.heap
	for {
		top := 2*i + 1
		if top >= len(h) {
			return
		}
		if right := top + 1; right < len(h) && before(h[right], h[top]) {
			top = right
		}
		if !before(h[top], h[i]) {
			return
		}
		h[i], h[top] = h[top], h[i]
		i = top
	}
}

// rankCandidates lists the mergeable module pairs (modules) or register
// pairs (!modules), scored by the configured selection policy, as a
// ranking to draw from best first. The merger loop ranks the register
// pairs only once every module pair has failed. The balance scores read
// m by node id, which st's numbering gives without a design.
func (st *state) rankCandidates(modules bool, m *testability.Metrics, tp tiePolicy) *ranking {
	r := &st.sc.regs
	if modules {
		r = &st.sc.mods
	}
	r.heap = r.heap[:0]
	switch {
	case modules:
		st.scoreModules(r, m, tp)
	case !st.par.camad:
		st.scoreRegs(r, m)
	}
	if rankHook != nil {
		rankHook(r.heap)
	}
	r.order()
	return r
}

// scoreModules adds every pair of same-class modules to r.
func (st *state) scoreModules(r *ranking, m *testability.Metrics, tp tiePolicy) {
	nodes := st.numbering()
	for i := 0; i < len(st.a.Modules); i++ {
		for j := i + 1; j < len(st.a.Modules); j++ {
			if st.a.Modules[i].Class != st.a.Modules[j].Class {
				continue
			}
			var sc float64
			if st.par.Selection == SelectConnectivity {
				sc = float64(alloc.Connectivity(st.g, st.a, i, j))
			} else {
				u, v := nodes.ModNode(i), nodes.ModNode(j)
				// Module merging favours data-dependent operation groups:
				// dependent operations are already serialized, so sharing a
				// module between them imposes no new scheduling constraint
				// (and the paper's own module allocations pair
				// producer-consumer chains: N26/N31, N29/N33 in Table 3).
				// Here and below, float64(x*y) rounds the product: no
				// fused multiply-add (DESIGN.md §3a).
				sc = m.BalanceScore(u, v)
				if tp != tieNoDepBonus {
					sc += float64(0.3 * float64(st.modDependencePairs(i, j)))
				}
			}
			r.heap = append(r.heap, candidate{isModule: true, i: i, j: j, score: sc})
		}
	}
}

// scoreRegs adds every pair of registers to r.
func (st *state) scoreRegs(r *ranking, m *testability.Metrics) {
	nodes := st.numbering()
	var readers, writers [][]int
	if st.par.Selection != SelectConnectivity {
		readers, writers = st.regModules()
	}
	for i := 0; i < len(st.a.Regs); i++ {
		for j := i + 1; j < len(st.a.Regs); j++ {
			var sc float64
			if st.par.Selection == SelectConnectivity {
				sc = float64(alloc.RegConnectivity(st.g, st.a, i, j))
			} else {
				u, v := nodes.RegNode(i), nodes.RegNode(j)
				// Balance principle tempered by the loop-avoidance goal of
				// §3: merging a register pair connected through one module
				// creates a self-loop, the structure testable allocation
				// exists to avoid. Pairs whose lifetimes are already
				// disjoint under the current schedule rank first — their
				// serialization arcs are consistent with the schedule, so
				// they cannot cascade into infeasibility (they are the
				// merges a left-edge packing would make), and the balance
				// score chooses among them.
				loops := common(readers[i], writers[j]) + common(readers[j], writers[i])
				sc = m.BalanceScore(u, v) - float64(0.5*float64(loops))
				if st.regsDisjointNow(i, j) {
					sc += 2
				}
			}
			r.heap = append(r.heap, candidate{isModule: false, i: i, j: j, score: sc})
		}
	}
}

// numbering returns the node numbering of st's data path, refilled in the
// scratch; it is valid until the next call on any state of the run.
func (st *state) numbering() *etpn.Numbering {
	st.sc.nodes.Number(st.g, st.a)
	return &st.sc.nodes
}

// regsDisjointNow reports whether every cross pair of values of registers
// i and j has disjoint lifetimes under the current schedule.
func (st *state) regsDisjointNow(i, j int) bool {
	for _, va := range st.a.Regs[i].Vals {
		for _, vb := range st.a.Regs[j].Vals {
			la, aok := st.life.Of(va)
			lb, bok := st.life.Of(vb)
			if aok && bok && alloc.Overlaps(la, lb) {
				return false
			}
		}
	}
	return true
}

// regModules returns, per register, the modules reading one of its values
// and the modules producing one, each ascending without repeats. Merging
// registers i and j creates one self-loop per module in readers[i] ∩
// writers[j] and per module in readers[j] ∩ writers[i]: that module would
// then read and write the same register. The lists live in st's scratch
// and are valid until the next call.
func (st *state) regModules() (readers, writers [][]int) {
	nr := len(st.a.Regs)
	for len(st.sc.readers) < nr {
		st.sc.readers = append(st.sc.readers, nil)
		st.sc.writers = append(st.sc.writers, nil)
	}
	readers, writers = st.sc.readers[:nr], st.sc.writers[:nr]
	for r, reg := range st.a.Regs {
		readers[r], writers[r] = readers[r][:0], writers[r][:0]
		for _, v := range reg.Vals {
			val := st.g.Value(v)
			for _, u := range val.Uses {
				readers[r] = append(readers[r], st.a.ModuleOf[u])
			}
			if val.Def != dfg.NoNode {
				writers[r] = append(writers[r], st.a.ModuleOf[val.Def])
			}
		}
		slices.Sort(readers[r])
		readers[r] = slices.Compact(readers[r])
		slices.Sort(writers[r])
		writers[r] = slices.Compact(writers[r])
	}
	return readers, writers
}

// common counts the elements two ascending, repeat-free lists share.
func common(a, b []int) int {
	n := 0
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] < b[0]:
			a = a[1:]
		case b[0] < a[0]:
			b = b[1:]
		default:
			n++
			a, b = a[1:], b[1:]
		}
	}
	return n
}

// modDependencePairs counts the direct data dependences between the
// operations of modules i and j: each such pair is already serialized by
// the data flow, so merging costs nothing in scheduling freedom.
// Each successor and predecessor counts once however many operands link
// the pair, as in dfg.Graph's Succs and Preds.
func (st *state) modDependencePairs(i, j int) int {
	pairs := 0
	for _, op := range st.a.Modules[i].Ops {
		n := st.g.Node(op)
		uses := st.g.Value(n.Out).Uses
		for x, s := range uses {
			if st.a.ModuleOf[s] == j && !slices.Contains(uses[:x], s) {
				pairs++
			}
		}
		for x, v := range n.In {
			if p := st.g.Value(v).Def; p != dfg.NoNode && st.a.ModuleOf[p] == j && !slices.Contains(n.In[:x], v) {
				pairs++
			}
		}
	}
	return pairs
}

// tiePolicy resolves near-ties in ΔC among a block's feasible candidates
// and selects the scoring variant used for candidate ranking.
type tiePolicy int

const (
	tieHighScore tiePolicy = iota // prefer the higher balance score
	tieLowScore                   // prefer the lower balance score
	tieStrict                     // no tolerance: strict minimum ΔC
	// tieNoDepBonus ranks module pairs without the data-dependence bonus,
	// letting pure balance + ΔC pick partitions the bonus would suppress.
	tieNoDepBonus
)

// tiePolicies lists every tie-break policy SynthesizeCtx explores, in the
// fixed order the winner reduction visits them. SynthesizeCtx's doc comment
// and the exploration loop both derive from this list, so the two cannot
// drift apart again.
var tiePolicies = []tiePolicy{tieHighScore, tieLowScore, tieStrict, tieNoDepBonus}

// SynthesizeCtx runs Algorithm 1 on g and returns the synthesized design.
// The greedy merger is run under the four deterministic tie-break
// policies of tiePolicies — tieHighScore, tieLowScore, tieStrict and
// tieNoDepBonus — and the design with the smallest final α·E + β·H wins
// (ties on that, in turn, go to the fewer-self-loops design; the authors
// applied Algorithm 1 manually and resolved near-ties by judgement, and
// the exploration recovers that judgement mechanically). The policies
// are independent, so they run concurrently on up to par.Workers
// goroutines; the winner is chosen by a sequential reduction in
// tiePolicies order, making the result identical at every worker count.
//
// Cancellation degrades gracefully: each tie policy's merger loop checks
// the context at every iteration boundary, stops merging when it dies, and
// finishes its current (valid, buildable) state; the winner reduction then
// runs as usual and the returned Result is tagged StatusPartial. The nil
// error on a partial result is deliberate — a deadline is a budget, not a
// failure.
func SynthesizeCtx(ctx context.Context, g *dfg.Graph, par Params) (*Result, error) {
	// Reject nonsensical widths here, at the entry point, instead of
	// letting a Params built by hand fail deep inside cost estimation or
	// gate generation (a width over 64 cannot even be simulated — the
	// gate level packs one value bit per uint64 lane word).
	if err := dfg.CheckWidth(par.Width); err != nil {
		return nil, err
	}
	// One cache serves all four policies: they share the initial state and
	// most early-iteration evaluations, so cross-policy hits are where the
	// memoization pays most. Cached values are pure functions of their
	// keys, keeping the result independent of sharing and worker count.
	cache := newEvalCache(par)
	// The pool deliberately runs without the context: each policy handles
	// cancellation itself by degrading to a partial design, so all four
	// jobs return results (never ctx.Err()) and the winner reduction still
	// has a full slate to choose from.
	results := make([]*Result, len(tiePolicies))
	if err := parallel.ForEachCtx(context.Background(), par.Workers, len(tiePolicies), func(i int) error {
		r, err := synthesizeOnce(ctx, g, par, tiePolicies[i], cache)
		if err != nil {
			return err
		}
		results[i] = r
		return nil
	}); err != nil {
		return nil, err
	}
	var best *Result
	var bestCost float64
	for _, r := range results {
		// Rounded products: no fused multiply-add (DESIGN.md §3a).
		c := float64(par.Alpha*float64(r.ExecTime)) + float64(par.Beta*r.Area.Total)
		var better bool
		switch {
		case best == nil:
			better = true
		default:
			// Within a 3% cost band the design with fewer self-loops wins
			// (the paper weighs loop avoidance alongside area, §3); outside
			// it, cost decides.
			tol := float64(0.03 * absf(bestCost))
			switch {
			case c < bestCost-tol:
				better = true
			case c <= bestCost+tol && r.Design.SelfLoops() < best.Design.SelfLoops():
				better = true
			case c <= bestCost+tol && r.Design.SelfLoops() == best.Design.SelfLoops() && c < bestCost:
				better = true
			}
		}
		if better {
			best, bestCost = r, c
		}
	}
	// An exploration where any policy was cut short is itself partial:
	// the winner might have lost to a policy that never got to finish.
	for _, r := range results {
		if r.Status == exec.StatusPartial && best.Status != exec.StatusPartial {
			best.Status = exec.StatusPartial
			best.Exhausted = r.Exhausted
		}
	}
	return best, nil
}

func synthesizeOnce(ctx context.Context, g *dfg.Graph, par Params, tp tiePolicy, cache *evalCache) (*Result, error) {
	st, err := initialState(g, par, cache)
	if err != nil {
		return nil, err
	}
	k := par.K
	if k <= 0 {
		k = 3
	}
	exhausted := ""
	var trace []string
	for iter := 0; ; iter++ {
		if ctx.Err() != nil {
			// Deadline mid-loop: keep the mergers committed so far and
			// finish the current state as a partial result.
			exhausted = exec.BudgetDeadline
			break
		}
		if iter > g.NumNodes()+g.NumValues()+8 {
			return nil, fmt.Errorf("core: merger loop failed to terminate")
		}
		an, err := st.analyze()
		if err != nil {
			return nil, err
		}
		m := an.m
		// Examine candidates in blocks of k down the testability ranking
		// (paper line 6: "select k pairs of mergable nodes"); within the
		// first block containing a feasible merger, commit the
		// smallest-ΔC one (line 11), breaking near-ties (within 2%) by the
		// balance score. Module mergers, whose ΔH dominates the cost, are
		// exhausted before register packing begins — interleaving them
		// lets early register serialization arcs lock out the large module
		// savings the tables report.
		var best *state
		var bestC candidate
		var bestE int
		var bestH, bestDC float64
		for _, modules := range [...]bool{true, false} {
			list := st.rankCandidates(modules, m, tp)
			for best == nil {
				block := list.next(k)
				if len(block) == 0 {
					break
				}
				for _, c := range block {
					par.Stats.Add("core.evaluations", 1)
					ns, dE, dH, err := st.applyCandidate(c, m)
					if err != nil {
						continue
					}
					// Rounded products: no fused multiply-add (DESIGN.md §3a).
					dC := float64(par.Alpha*float64(dE)) + float64(par.Beta*dH)
					take := best == nil
					if !take {
						tol := tolFor(tp, bestDC)
						switch {
						case dC < bestDC-tol:
							take = true
						case dC <= bestDC+tol && (tp == tieHighScore || tp == tieNoDepBonus) && c.score > bestC.score:
							take = true
						case dC <= bestDC+tol && tp == tieLowScore && c.score < bestC.score:
							take = true
						}
					}
					if take {
						best, bestC, bestE, bestH, bestDC = ns, c, dE, dH, dC
					}
				}
			}
			if best != nil {
				break
			}
		}
		if best == nil {
			break // no merger exists (paper's termination condition)
		}
		kind := "reg"
		if bestC.isModule {
			kind = "mod"
		}
		st = best
		trace = append(trace, fmt.Sprintf("iter %d: merge %s %d+%d score %.4f dE %d dH %.1f dC %.1f",
			iter, kind, bestC.i, bestC.j, bestC.score, bestE, bestH, bestDC))
	}
	res, err := st.finish("ours", trace)
	if err != nil {
		return nil, err
	}
	if exhausted != "" {
		res.Status = exec.StatusPartial
		res.Exhausted = exhausted
	}
	return res, nil
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// tolFor is the near-tie tolerance band of the candidate selection: within
// it the tie policy's score comparison decides instead of ΔC. tieStrict
// admits no band. The band is rounded, so no architecture may fuse it
// into the caller's subtraction.
func tolFor(tp tiePolicy, bestDC float64) float64 {
	if tp == tieStrict {
		return 0
	}
	return float64(0.02 * (absf(bestDC) + 1))
}

func (st *state) finish(method string, trace []string) (*Result, error) {
	if err := st.build(); err != nil {
		return nil, err
	}
	d, err := st.design()
	if err != nil {
		return nil, err
	}
	// Every synthesis flow — ours and the three baselines — funnels its
	// final design through here, so this is the single validation boundary
	// for finished designs.
	if err := validate.Design(d); err != nil {
		return nil, err
	}
	an, err := st.analyze()
	if err != nil {
		return nil, err
	}
	return &Result{
		Method:   method,
		Design:   d,
		ExecTime: st.execT,
		Area:     st.area,
		Mux:      st.mux,
		Metrics:  an.m,
		Trace:    trace,
	}, nil
}

// applyCandidate tentatively merges candidate c on a clone of st,
// performing the rescheduling the merger imposes, and returns the new
// state with the incremental costs ΔE and ΔH.
func (st *state) applyCandidate(c candidate, m *testability.Metrics) (*state, int, float64, error) {
	if c.isModule {
		return st.applyModuleMerge(c, m)
	}
	return st.applyRegMerge(c, m)
}

// applyModuleMerge implements the module merger of §4.3.1: the two
// modules' operation sequences are merged by merge sort under SR1/SR2 into
// one total order, realized as precedence arcs, and the design is
// rescheduled. Every order is list-scheduled under st's binding with
// module j's operations moved to module i: the partition MergeModules
// leaves, which is all List reads of a binding.
//
// The orders are capacity-capped subslices of one scratch buffer, valid
// until the next module merger: nothing keeps an order beyond realize,
// which builds its arcs into the scratch and copies them into the merged
// problem.
func (st *state) applyModuleMerge(c candidate, m *testability.Metrics) (*state, int, float64, error) {
	buf := sched.OrderByStep(st.sc.order[:0], st.a.Modules[c.i].Ops, st.s)
	ni := len(buf)
	buf = sched.OrderByStep(buf, st.a.Modules[c.j].Ops, st.s)
	n := len(buf)
	seqI, seqJ, both := buf[:ni:ni], buf[ni:n:n], buf[:n:n]
	bind := append(st.sc.bind[:0], st.a.ModuleOf...)
	for _, op := range st.a.Modules[c.j].Ops {
		bind[op] = c.i
	}
	st.sc.bind = bind

	var orders [][]dfg.NodeID
	switch st.par.Reschedule {
	case RescheduleAppend:
		orders = [][]dfg.NodeID{both}
	case RescheduleFrozen:
		// The current step order; realize rejects it unless every
		// operation already occupies a distinct step.
		buf = sched.OrderByStep(buf, both, st.s)
		orders = [][]dfg.NodeID{buf[n:]}
	default:
		// Merge-sort with SR1/SR2 first; when its order is infeasible,
		// fall back to the order with the smallest critical-path increase
		// (paper §4.3.1: "if these two rules can not be applied, we will
		// select the pair which results in the smallest increase in the
		// length of the critical path") by trying the step-order and both
		// append orders.
		nodes := st.numbering()
		buf = sched.MergeOrders(buf, seqI, seqJ, func(a, b dfg.NodeID) int { return st.preferSR(m, nodes, a, b) })
		buf = sched.OrderByStep(buf, both, st.s)
		buf = append(append(buf, seqJ...), seqI...)
		orders = [][]dfg.NodeID{buf[n : 2*n : 2*n], buf[2*n : 3*n : 3*n], both, buf[3*n:]}
	}
	st.sc.order = buf
	return selectMergeOrder(orders, func(order []dfg.NodeID) (*state, int, float64, error) {
		st.sc.strict = sched.ChainArcs(st.sc.strict[:0], order)
		return st.realize(c, st.sc.strict, nil, bind)
	})
}

// selectMergeOrder realizes the order preference of §4.3.1 over the
// candidate serialization orders. Candidate 0 is the SR order: if
// feasible it wins outright, by construction, regardless of how the
// fallback orders would cost — only when it fails do the fallbacks
// compete on (ΔE, ΔH). An order identical to one already tried is
// skipped: it is the same scheduling problem and would replay the same
// outcome.
func selectMergeOrder(candidates [][]dfg.NodeID, apply func([]dfg.NodeID) (*state, int, float64, error)) (*state, int, float64, error) {
	var bestNS *state
	var bestE int
	var bestH float64
	var firstErr error
	for idx, order := range candidates {
		if duplicateOrder(candidates[:idx], order) {
			continue
		}
		ns, dE, dH, err := apply(order)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if idx == 0 {
			// The SR order is feasible: prefer it outright (SR2).
			return ns, dE, dH, nil
		}
		if bestNS == nil || dE < bestE || (dE == bestE && dH < bestH) {
			bestNS, bestE, bestH = ns, dE, dH
		}
	}
	if bestNS == nil {
		return nil, 0, 0, firstErr
	}
	return bestNS, bestE, bestH, nil
}

// duplicateOrder reports whether order already appears among prior.
func duplicateOrder(prior [][]dfg.NodeID, order []dfg.NodeID) bool {
	for _, p := range prior {
		if slices.Equal(p, order) {
			return true
		}
	}
	return false
}

// preferSR is the controllability/observability enhancement strategy (SR1
// + SR2) as a merge-sort comparator (sched.Prefer): execute first the
// operation whose operand registers are more controllable, and last the
// operation whose result register is more observable, thereby shortening
// the sequential depth from a controllable register to an observable
// register. Ties fall back to the current control step (smallest
// critical-path increase). nodes is st's node numbering.
func (st *state) preferSR(m *testability.Metrics, nodes *etpn.Numbering, a, b dfg.NodeID) int {
	sa := st.ctrlIn(m, nodes, a) + st.obsOut(m, nodes, b)
	sb := st.ctrlIn(m, nodes, b) + st.obsOut(m, nodes, a)
	switch {
	case sa > sb:
		return -1
	case sb > sa:
		return +1
	}
	// SR ties: keep the operation currently scheduled earlier first.
	return st.s.Step[a] - st.s.Step[b]
}

// ctrlIn is the best controllability among op's operands.
func (st *state) ctrlIn(m *testability.Metrics, nodes *etpn.Numbering, op dfg.NodeID) float64 {
	best := 0.0
	for _, v := range st.g.Node(op).In {
		if c := testability.ValueCtrl(m, nodes, st.a.RegOf, v); c > best {
			best = c
		}
	}
	return best
}

// obsOut is the observability of op's result register.
func (st *state) obsOut(m *testability.Metrics, nodes *etpn.Numbering, op dfg.NodeID) float64 {
	if r := st.a.RegOf[st.g.Node(op).Out]; r >= 0 {
		return m.Obs(nodes.RegNode(r))
	}
	return 1 // result goes straight to a port
}

// applyRegMerge implements the register merger of §4.3.2: the lifetimes of
// the two registers' values must become disjoint. Both serialization
// orders are evaluated; the one yielding the shorter mean sequential depth
// from controllable to observable registers is kept (SR1), with ΔE as the
// tie-breaker. A register merger leaves the module binding as it is.
func (st *state) applyRegMerge(c candidate, m *testability.Metrics) (*state, int, float64, error) {
	var ns [2]*state
	var dE [2]int
	var dH [2]float64
	var errs [2]error
	for k, first := range [2]int{c.i, c.j} {
		strict, weak, err := st.serializeRegs(first, c.i+c.j-first)
		if err == nil {
			ns[k], dE[k], dH[k], err = st.realize(c, strict, weak, st.a.ModuleOf)
		}
		errs[k] = err
	}
	switch {
	case errs[0] != nil && errs[1] != nil:
		return nil, 0, 0, errs[0]
	case errs[0] != nil:
		return ns[1], dE[1], dH[1], nil
	case errs[1] != nil:
		return ns[0], dE[0], dH[0], nil
	}
	if st.par.Reschedule == RescheduleMergeSort {
		// SR1: prefer the order with the shorter mean sequential depth. The
		// two orders frequently converge to the same (schedule, allocation)
		// pair, in which case the second analysis is a cache hit.
		a1, err := ns[0].analyze()
		if err != nil {
			return nil, 0, 0, err
		}
		a2, err := ns[1].analyze()
		if err != nil {
			return nil, 0, 0, err
		}
		d1, d2 := a1.regDepth, a2.regDepth
		if d2 < d1 {
			return ns[1], dE[1], dH[1], nil
		}
		if d1 < d2 {
			return ns[0], dE[0], dH[0], nil
		}
	}
	if dE[1] < dE[0] || (dE[1] == dE[0] && dH[1] < dH[0]) {
		return ns[1], dE[1], dH[1], nil
	}
	return ns[0], dE[0], dH[0], nil
}

// meanRegSeqDepth averages the sequential depth of a's registers. nodes
// numbers the registers in a.Regs order, so the sum runs in node order.
func meanRegSeqDepth(nodes *etpn.Numbering, a *alloc.Allocation, m *testability.Metrics) float64 {
	if len(a.Regs) == 0 {
		return 0
	}
	sum := 0.0
	for _, r := range a.Regs {
		sum += m.SeqDepth(nodes.RegNode(r.ID))
	}
	return sum / float64(len(a.Regs))
}

// serializeRegs returns precedence arcs forcing every value of register
// `first` to expire before the corresponding value of register `second`
// is created, pairing the values in lifetime order (the general case of
// §4.3.2 handled like the module merge sort). When the current lifetimes
// of a pair are already disjoint, no arc is added for it. It reads only
// the graph, the registers and the lifetimes, so it runs on the committed
// state before any clone. The arcs live in st's scratch until the next
// call: realize copies them into the merged problem.
func (st *state) serializeRegs(first, second int) (strict, weak [][2]dfg.NodeID, err error) {
	g := st.g
	ra, rb := st.a.Regs[first].Vals, st.a.Regs[second].Vals
	st.sc.vals = append(append(st.sc.vals[:0], ra...), rb...)
	valsA, valsB := st.sc.vals[:len(ra)], st.sc.vals[len(ra):]
	byBirth := func(vs []dfg.ValueID) {
		slices.SortFunc(vs, func(x, y dfg.ValueID) int { return st.life[x].Birth - st.life[y].Birth })
	}
	byBirth(valsA)
	byBirth(valsB)
	// Every cross pair must be serialized, not just the currently
	// overlapping ones: the disjointness constraint imposed by the merger
	// must survive all future rescheduling (paper §4). Pairs that are
	// already disjoint keep their current order; contentious pairs
	// (overlapping or tied) take the caller's direction, so both global
	// orders are explored by applyRegMerge.
	strict, weak = st.sc.strict[:0], st.sc.weak[:0]
pairs:
	for _, vb := range valsB {
		for _, va := range valsA {
			x, y := va, vb
			la, lb := st.life[va].Interval, st.life[vb].Interval
			if !alloc.Overlaps(la, lb) && lb.Death <= la.Birth {
				x, y = vb, va // b already expires before a is created
			}
			if strict, weak, err = serializePair(g, x, y, strict, weak); err != nil {
				break pairs
			}
		}
	}
	st.sc.strict, st.sc.weak = strict, weak
	if err != nil {
		return nil, nil, err
	}
	return strict, weak, nil
}

// serializePair appends to strict and weak the arcs ensuring va expires
// before vb is created. The last read of va may share a control step with
// vb's production (the register loads the new value on the edge that ends
// the step), so reader-to-producer arcs are weak; producer-to-producer
// arcs are strict (two values cannot be written in the same step). An
// operation reading both values makes the lifetimes inseparable (paper
// §4.3.2, case 2). On an error it returns strict and weak as they stand,
// so the caller keeps their arrays.
func serializePair(g *dfg.Graph, va, vb dfg.ValueID, strict, weak [][2]dfg.NodeID) ([][2]dfg.NodeID, [][2]dfg.NodeID, error) {
	a, b := g.Value(va), g.Value(vb)
	for _, u := range a.Uses {
		if slices.Contains(b.Uses, u) {
			return strict, weak, fmt.Errorf("core: operation %s uses both %s and %s", g.Node(u).Name, a.Name, b.Name)
		}
	}
	if b.Def != dfg.NoNode {
		for _, u := range a.Uses {
			if u == b.Def {
				// Reading va and producing vb in one operation is the
				// natural read-then-overwrite pattern: no arc needed
				// beyond the trivial step equality.
				continue
			}
			weak = append(weak, [2]dfg.NodeID{u, b.Def})
		}
		if a.Def != dfg.NoNode {
			if a.Def == b.Def {
				return strict, weak, fmt.Errorf("core: %s and %s share a producer", a.Name, b.Name)
			}
			strict = append(strict, [2]dfg.NodeID{a.Def, b.Def})
		}
		return strict, weak, nil
	}
	// vb is an input value, born one step before its first use: every
	// reader (and the producer) of va must strictly precede every reader
	// of vb.
	if len(b.Uses) == 0 {
		return strict, weak, fmt.Errorf("core: cannot serialize %s before unused input %s", a.Name, b.Name)
	}
	for _, y := range b.Uses {
		for _, x := range a.Uses {
			strict = append(strict, [2]dfg.NodeID{x, y})
		}
		if a.Def != dfg.NoNode {
			if a.Def == y {
				return strict, weak, fmt.Errorf("core: producer of %s reads %s", a.Name, b.Name)
			}
			strict = append(strict, [2]dfg.NodeID{a.Def, y})
		}
	}
	return strict, weak, nil
}

// realize applies candidate c's merger under the merge order the strict
// and weak arcs realize, returning the merged state with ΔE and ΔH
// relative to st. The order is list-scheduled first, on st's frozen base
// under bind, the merged module binding, so an order List rejects
// (core.rejected counts them) clones nothing; the schedule is
// byte-identical to listing the merged state's own problem
// (sched.Base.List). Memoizing List by problem cost as much as it saved
// (DESIGN.md §4c). The frozen ablation lists nothing: its one feasibility
// check is verifying the unchanged schedule against the merged problem —
// every strict and weak arc, and the module binding.
func (st *state) realize(c candidate, strict, weak [][2]dfg.NodeID, bind []int) (*state, int, float64, error) {
	var s sched.Schedule
	if st.par.Reschedule != RescheduleFrozen && !recompileOrders {
		start := time.Now()
		var err error
		s, err = st.frozen().List(strict, weak, bind)
		st.par.Stats.Since("time.sched", start)
		if err != nil {
			st.par.Stats.Add("core.rejected", 1)
			return nil, 0, 0, err
		}
	}
	ns := st.clone()
	var err error
	if c.isModule {
		err = ns.a.MergeModules(c.i, c.j)
		copy(ns.prob.ModuleOf, ns.a.ModuleOf)
	} else {
		err = ns.a.MergeRegs(c.i, c.j)
	}
	if err != nil {
		return nil, 0, 0, err
	}
	ns.prob.Extra = append(ns.prob.Extra, strict...)
	ns.prob.ExtraWeak = append(ns.prob.ExtraWeak, weak...)
	switch {
	case st.par.Reschedule == RescheduleFrozen:
		err = ns.prob.Verify(ns.s)
	case recompileOrders:
		ns.s, err = ns.prob.List()
	default:
		ns.s = s
	}
	if err != nil {
		return nil, 0, 0, err
	}
	if err := ns.build(); err != nil {
		return nil, 0, 0, err
	}
	return ns, ns.execT - st.execT, ns.area.Total - st.area.Total, nil
}
