package atpg

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/chaos"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/gates"
	"repro/internal/logicsim"
	"repro/internal/parallel"
)

// Config tunes an ATPG campaign.
type Config struct {
	// Seed drives all randomness; campaigns are fully reproducible.
	Seed int64
	// SampleFaults caps the collapsed fault list by even sampling
	// (0 = use every fault).
	SampleFaults int
	// RandomBatches is the number of 64-sequence random batches.
	RandomBatches int
	// SeqLen is the length (clock cycles) of each random sequence.
	SeqLen int
	// MaxFrames is the time-frame window the deterministic phase searches
	// on a sequential circuit; it should exceed the design's sequential
	// depth. Values below 1 are clamped to 1 by RunCtx. A combinational
	// circuit is always searched in one frame.
	MaxFrames int
	// BacktrackLimit bounds each PODEM attempt: the deterministic one and
	// every restart of a fault.
	BacktrackLimit int
	// Restarts is the number of randomized PODEM restarts tried per fault
	// after the deterministic attempt.
	Restarts int
	// Workers bounds the goroutines used by the fault-simulation and
	// deterministic PODEM phases (0 = one per CPU, 1 = sequential). The
	// result is bit-identical at every worker count: per-fault work is
	// speculated in parallel but committed in fault-index order.
	Workers int

	// testHookAfterRandom, when set (package tests only), runs after the
	// random phase commits and before the deterministic phase starts. It
	// gives tests a deterministic cancellation point: cancelling the
	// campaign context here yields a Partial result with exactly the
	// random-phase coverage, with no wall-clock flakiness.
	testHookAfterRandom func()
	// testHookSearch, when set (package tests only), runs at the start of
	// each fault's deterministic search, on the worker goroutine and under
	// the per-fault panic guard; panicking from it simulates a PODEM crash
	// for the panic-isolation tests.
	testHookSearch func(faultIndex int)
	// testHookPodem, when set (package tests only), runs every PODEM
	// attempt in place of the event-driven search; the differential tests
	// run whole campaigns on the full-resimulation reference through it.
	testHookPodem func(f fault.Fault, frames, backtrackLimit int, rng *rand.Rand) (*podemResult, error)
}

// DefaultConfig returns the campaign settings used by the experiment
// harness.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:           seed,
		SampleFaults:   1500,
		RandomBatches:  4,
		SeqLen:         16,
		MaxFrames:      8,
		BacktrackLimit: 60,
		Restarts:       4,
	}
}

// Outcome classifies how the campaign resolved one sampled fault. The
// enum deliberately separates the two proofs (detected, untestable) from
// the three budget exhaustions (frames, backtracks, deadline): a budget
// running out says nothing about the fault's testability, and conflating
// the two inflates untestability claims (the clamped-MaxFrames campaigns
// of TestMaxFramesClampRegression used to report every deep sequential
// fault as "untestable").
type Outcome uint8

const (
	// OutcomeNone: the fault was never resolved (internal zero value; all
	// remaining None outcomes become OutcomeSkipped when a campaign ends
	// early).
	OutcomeNone Outcome = iota
	// OutcomeDetectedRandom: detected during the random phase.
	OutcomeDetectedRandom
	// OutcomeDetectedPodem: PODEM generated a test for this fault.
	OutcomeDetectedPodem
	// OutcomeDetectedDrop: detected by fault-simulating a test generated
	// for a different fault (test-set reuse).
	OutcomeDetectedDrop
	// OutcomeUntestable: proven untestable — the PODEM decision tree was
	// exhausted on a combinational circuit, where exhaustion of one frame
	// is a complete proof.
	OutcomeUntestable
	// OutcomeFrameLimited: the decision tree was exhausted at the capped
	// time-frame window of a sequential circuit. The frame budget ran out;
	// a longer window might still find a test. Not a proof.
	OutcomeFrameLimited
	// OutcomeBacktrackLimited: the backtrack budget ran out in the
	// deterministic attempt and every restart. Testability unknown.
	OutcomeBacktrackLimited
	// OutcomeSkipped: the deadline expired before this fault's search
	// committed.
	OutcomeSkipped
	// OutcomePanicked: the fault's search panicked and was isolated; the
	// recovered *exec.ExecError is in Result.Errors.
	OutcomePanicked
)

// String renders the outcome.
func (o Outcome) String() string {
	switch o {
	case OutcomeNone:
		return "none"
	case OutcomeDetectedRandom:
		return "detected-random"
	case OutcomeDetectedPodem:
		return "detected-podem"
	case OutcomeDetectedDrop:
		return "detected-drop"
	case OutcomeUntestable:
		return "untestable"
	case OutcomeFrameLimited:
		return "frame-limited"
	case OutcomeBacktrackLimited:
		return "backtrack-limited"
	case OutcomeSkipped:
		return "skipped"
	case OutcomePanicked:
		return "panicked"
	}
	return fmt.Sprintf("Outcome(%d)", int(o))
}

// Detected reports whether the outcome is one of the detection proofs.
func (o Outcome) Detected() bool {
	return o == OutcomeDetectedRandom || o == OutcomeDetectedPodem || o == OutcomeDetectedDrop
}

// Result reports a campaign — the three quantities of the paper's
// Tables 1-3 plus diagnostics. A Result is valid even when Status is
// StatusPartial: every counter reflects work that genuinely happened
// before the budget ran out.
type Result struct {
	TotalFaults    int
	RandomDetected int
	DetDetected    int
	Untestable     int // proven untestable (combinational tree exhaustion)
	FrameLimited   int // tree exhausted at the capped frame window (sequential)
	Aborted        int // backtrack limit hit
	Skipped        int // deadline expired before the fault was searched

	// Status is StatusComplete for a full campaign, StatusPartial when a
	// budget (Exhausted names it) ran out mid-run.
	Status exec.Status
	// Exhausted names the budget that cut the campaign short ("" when
	// complete): exec.BudgetDeadline or exec.BudgetPanic.
	Exhausted string
	// Errors holds the recovered panics of isolated per-fault searches
	// (OutcomePanicked faults), in fault-commit order.
	Errors []*exec.ExecError
	// Outcomes records the per-fault resolution, indexed like the sampled
	// collapsed fault list.
	Outcomes []Outcome

	// Coverage is detected/total over the (sampled) collapsed fault list.
	Coverage float64
	// Effort is the test-generation effort in kilo-gate-evaluations
	// (random-phase simulation plus PODEM implications): the reproduction
	// counterpart of the paper's "test generation time". It is nominal: a
	// PODEM implication step is charged as a full resimulation of every
	// gate in every frame, whatever the event-driven search re-evaluates.
	Effort int64
	// GateEvals counts the gate evaluations actually performed: random-
	// phase simulation plus the event-driven PODEM implications of every
	// committed search.
	GateEvals int64
	// TestCycles is the total test-application length in clock cycles of
	// the compacted test set: the counterpart of "test generated cycle".
	TestCycles int
	// TestSet holds the compacted test set itself: each sequence is a list
	// of per-cycle PI vectors (one uint64 per primary input; only bit 0 is
	// meaningful). Replaying the set with Replay reproduces at least the
	// campaign's detections; sum of sequence lengths equals TestCycles.
	TestSet [][][]uint64
}

// Detected returns the total number of detected faults.
func (r *Result) Detected() int { return r.RandomDetected + r.DetDetected }

// String renders the headline numbers.
func (r *Result) String() string {
	s := fmt.Sprintf("coverage %.2f%% (%d/%d faults; %d random + %d deterministic), effort %d kEval, %d test cycles",
		100*r.Coverage, r.Detected(), r.TotalFaults, r.RandomDetected, r.DetDetected, r.Effort, r.TestCycles)
	if r.Status == exec.StatusPartial {
		s += fmt.Sprintf(" [partial: %s exhausted, %d skipped]", r.Exhausted, r.Skipped)
	}
	return s
}

// RunCtx executes a full campaign on the circuit: fault collapsing and
// sampling, a random phase with fault dropping, then deterministic PODEM
// over time frames for the remaining faults (each generated test is fault
// simulated against the remaining list). Both phases run on cfg.Workers
// goroutines; results are committed in fault-index order, so every field
// of Result — including Effort and the fault-dropping cascade — is
// byte-identical to a sequential (Workers: 1) run.
//
// Cancellation degrades gracefully rather than erroring: the campaign
// stops at the next phase or fault boundary and returns its best-so-far
// Result tagged StatusPartial, with the unsearched faults counted as
// Skipped. The cancellation points are the start of each random batch,
// each fault's produce/commit in the deterministic phase, and each PODEM
// restart. The nil error on a partial result is deliberate — a deadline is
// a budget, not a failure.
func RunCtx(ctx context.Context, c *gates.Circuit, cfg Config) (*Result, error) {
	if cfg.MaxFrames < 1 {
		// A frame window below 1 is meaningless; a campaign asked for one
		// searches a single frame.
		cfg.MaxFrames = 1
	}
	flist := fault.Sample(fault.Collapse(c), cfg.SampleFaults)
	res := &Result{TotalFaults: len(flist)}
	if len(flist) == 0 {
		return res, nil
	}
	// One compiled program serves the random phase, every PODEM searcher
	// and every fault drop of the campaign.
	p, err := c.Compile()
	if err != nil {
		return nil, err
	}
	detected := make([]bool, len(flist))
	res.Outcomes = make([]Outcome, len(flist))
	rng := rand.New(rand.NewSource(cfg.Seed))
	exhausted := "" // first budget that cut the campaign short

	// Random phase: batches of 64 parallel sequences. For the compacted
	// test-set length, each newly detected fault nominates the first lane
	// that exposes it; the kept sequences are the union of nominated lanes.
	// Batches are atomic with respect to cancellation: a batch either runs
	// to completion or (when the context dies first) is not started, so a
	// partial result never holds detections without their retained tests.
	var randNominal, simEvals int64
	for batch := 0; batch < cfg.RandomBatches; batch++ {
		if ctx.Err() != nil {
			exhausted = exec.BudgetDeadline
			break
		}
		vectors := wideVectors(cfg.SeqLen, len(c.Inputs), rng.Uint64)
		sim, err := faultSim(p, flist, detected, vectors, cfg.Workers)
		if err != nil {
			return nil, err
		}
		randNominal += sim.nominal
		simEvals += sim.evals
		res.TestCycles += bits.OnesCount64(sim.lanes) * cfg.SeqLen
		for lane := 0; lane < 64; lane++ {
			if sim.lanes&(1<<uint(lane)) != 0 {
				res.TestSet = append(res.TestSet, extractLane(vectors, lane))
			}
		}
	}
	for i, d := range detected {
		if d {
			res.RandomDetected++
			res.Outcomes[i] = OutcomeDetectedRandom
		}
	}
	if cfg.testHookAfterRandom != nil {
		cfg.testHookAfterRandom()
	}

	// Deterministic phase: per fault, one deterministic PODEM attempt
	// followed by randomized restarts (randomized backtrace choices escape
	// the unproductive regions a fixed heuristic can wedge into), all in
	// one time-frame window: cfg.MaxFrames on a sequential circuit, one
	// frame on a combinational one, where every frame repeats the same
	// logic.
	//
	// The per-fault searches are independent — each restart RNG is seeded
	// from (Seed, fault index) — so they are speculated on cfg.Workers
	// goroutines and committed in fault-index order. A commit that
	// generates a test fault-simulates it against the remaining list and
	// publishes drop flags; speculative results for faults an earlier
	// commit dropped are discarded (their search, including its
	// implication count, never happened in the sequential schedule), which
	// keeps Effort and the fault-dropping cascade byte-identical.
	//
	// A panic inside one fault's search is isolated: it becomes an
	// OutcomePanicked entry plus a recorded *exec.ExecError, and every
	// other fault is still processed.
	var detImpl, detEvals int64
	if exhausted == "" {
		comb := len(c.DFFs) == 0
		frames := cfg.MaxFrames
		if comb {
			frames = 1
		}
		// Searchers are sized for the window and reused across faults; one
		// abandoned by a panic is dropped, never put back.
		searchers := sync.Pool{New: func() any { return newSearcher(p, frames) }}
		var undet []int
		for i := range flist {
			if !detected[i] {
				undet = append(undet, i)
			}
		}
		dropped := make([]atomic.Bool, len(flist))
		err := parallel.OrderedCtx(ctx, cfg.Workers, len(undet),
			func(j int) (detOutcome, error) {
				i := undet[j]
				if dropped[i].Load() {
					// Already dropped by a committed test: the commit side will
					// discard this placeholder. Errors are carried inside the
					// outcome so a speculative search on a dropped fault can
					// never surface one the sequential run would not have seen.
					return detOutcome{}, nil
				}
				o, perr := exec.Guard1("atpg.podem", i, func() (detOutcome, error) {
					s := searchers.Get().(*searcher)
					o := searchFault(ctx, s, flist[i], i, cfg, frames, comb)
					searchers.Put(s)
					return o, nil
				})
				if perr != nil {
					if ee, ok := exec.AsExecError(perr); ok {
						return detOutcome{panicked: ee}, nil
					}
					return detOutcome{err: perr}, nil
				}
				return o, nil
			},
			func(j int, o detOutcome) error {
				i := undet[j]
				if detected[i] {
					return nil // dropped by an earlier committed test
				}
				if o.err != nil {
					return o.err
				}
				if o.panicked != nil {
					res.Errors = append(res.Errors, o.panicked)
					res.Outcomes[i] = OutcomePanicked
					return nil
				}
				if o.cut {
					// A cut search means a budget expired mid-campaign (deadline,
					// or an injected exhaustion): the fault was skipped, so the
					// result must land StatusPartial even if the context recovers
					// before the run ends — Skipped > 0 with StatusComplete would
					// overstate the campaign.
					res.Outcomes[i] = OutcomeSkipped
					res.Skipped++
					if exhausted == "" {
						exhausted = exec.BudgetDeadline
					}
					return nil
				}
				detImpl += o.impl
				detEvals += o.evals
				switch {
				case o.success:
					detected[i] = true
					res.DetDetected++
					res.Outcomes[i] = OutcomeDetectedPodem
					res.TestCycles += frames
					// Fault-simulate the generated test against the remaining
					// faults (test-set reuse / fault dropping).
					res.TestSet = append(res.TestSet, extractLane(o.vec, 0))
					sim, err := faultSim(p, flist, detected, o.vec, cfg.Workers)
					if err != nil {
						return err
					}
					simEvals += sim.evals
					res.DetDetected += sim.newly
					for k := range flist {
						if detected[k] && !dropped[k].Load() {
							dropped[k].Store(true)
							if res.Outcomes[k] == OutcomeNone {
								res.Outcomes[k] = OutcomeDetectedDrop
							}
						}
					}
				case o.untestable:
					res.Untestable++
					res.Outcomes[i] = OutcomeUntestable
				case o.frameLimited:
					res.FrameLimited++
					res.Outcomes[i] = OutcomeFrameLimited
				default:
					res.Aborted++
					res.Outcomes[i] = OutcomeBacktrackLimited
				}
				return nil
			})
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				exhausted = exec.BudgetDeadline
			} else {
				return nil, err
			}
		}
	}

	// Faults the deadline left unresolved become Skipped; a panic-isolated
	// campaign with no deadline is also partial (the panicked faults were
	// never genuinely searched).
	for i := range flist {
		if res.Outcomes[i] == OutcomeNone {
			res.Outcomes[i] = OutcomeSkipped
			res.Skipped++
		}
	}
	if exhausted == "" && len(res.Errors) > 0 {
		exhausted = exec.BudgetPanic
	}
	if exhausted != "" {
		res.Status = exec.StatusPartial
		res.Exhausted = exhausted
	}
	res.Coverage = float64(count(detected)) / float64(len(flist))
	res.Effort = (randNominal + detImpl) / 1000
	res.GateEvals = simEvals + detEvals
	return res, nil
}

// detOutcome is the result of one fault's full deterministic search.
type detOutcome struct {
	impl         int64
	evals        int64
	success      bool
	vec          [][]uint64
	untestable   bool
	frameLimited bool
	cut          bool // deadline expired mid-search
	panicked     *exec.ExecError
	err          error
}

// searchFault runs the complete PODEM search for one fault in a window
// of the given number of frames: the deterministic attempt, then up to
// cfg.Restarts randomized ones, until one generates a test or exhausts
// the decision tree. It depends only on (circuit, f, i, cfg, frames),
// never on the state of other faults or on what the searcher ran before,
// so it can run speculatively on any worker. The context is checked at
// each restart boundary; a mid-search cancellation returns a cut outcome
// rather than a half-trusted classification.
func searchFault(ctx context.Context, s *searcher, f fault.Fault, i int, cfg Config, frames int, comb bool) detOutcome {
	var out detOutcome
	if cfg.testHookSearch != nil {
		cfg.testHookSearch(i)
	}
	// Chaos: the fault site runs under the caller's per-fault guard, so an
	// injected panic becomes an OutcomePanicked entry; an injected error
	// surfaces through the campaign's ordinary error path.
	if err := chaos.Step(chaos.SiteATPGFault); err != nil {
		out.err = err
		return out
	}
	for restart := 0; restart <= cfg.Restarts; restart++ {
		// The budget chaos site simulates the search budget expiring at a
		// restart boundary, riding the same cut path as a real deadline.
		if ctx.Err() != nil || chaos.Step(chaos.SiteATPGBudget) != nil {
			out.cut = true
			return out
		}
		var rng2 *rand.Rand
		if restart > 0 {
			rng2 = rand.New(rand.NewSource(cfg.Seed + int64(i)*1009 + int64(restart)))
		}
		var pr *podemResult
		if cfg.testHookPodem != nil {
			var err error
			if pr, err = cfg.testHookPodem(f, frames, cfg.BacktrackLimit, rng2); err != nil {
				out.err = err
				return out
			}
		} else {
			pr = s.podem(f, frames, cfg.BacktrackLimit, rng2)
		}
		out.impl += pr.Implications
		out.evals += pr.GateEvals
		if pr.Success {
			out.success = true
			out.vec = vectorsFromAssignment(len(s.p.PIs), pr.Vectors)
			return out
		}
		if !pr.Aborted {
			// The decision tree was exhausted. On a combinational circuit
			// that is a complete untestability proof (every frame repeats
			// the same logic). On a sequential circuit it only proves no
			// test exists within this window, so the honest verdict is
			// "frame budget exhausted", never "untestable".
			out.untestable = comb
			out.frameLimited = !comb
			return out
		}
	}
	return out // every attempt hit the backtrack limit
}

// simOut is what one faultSim call reports.
type simOut struct {
	lanes   uint64 // lanes that detected at least one new fault
	nominal int64  // nominal evaluations: every gate, every simulated cycle
	evals   int64  // evaluations the kernel performed
	newly   int    // newly detected faults
}

// faultSim fault-simulates a 64-lane vector sequence, applied from reset,
// over the undetected faults: the random phase's batches of 64 parallel
// random sequences, each PODEM test's fault drop and Replay. It marks
// detections; each newly detected fault stops at its first differing
// cycle and nominates the lowest lane that detects it. The nominal count
// charges every gate for every cycle a fault was simulated, as a full
// resimulation would. Faults are independent, so the list is partitioned
// across workers; the results are merged per fault index and are identical
// at every worker count.
func faultSim(p *gates.Program, flist []fault.Fault, detected []bool, vectors [][]uint64, workers int) (simOut, error) {
	tr := logicsim.NewTrace(p, nil, vectors)
	laneOf := make([]uint64, len(flist))
	cyclesOf := make([]int, len(flist))
	// A batch is atomic with respect to cancellation (see RunCtx), so the
	// kernel runs without the campaign's context.
	evals, err := tr.Simulate(context.Background(), flist, detected, workers, logicsim.Observe{},
		func(i, cycle int, diff uint64) {
			if cycle < 0 {
				cyclesOf[i] = len(vectors)
				return
			}
			detected[i] = true
			laneOf[i] = diff & (-diff)
			cyclesOf[i] = cycle + 1
		})
	if err != nil {
		return simOut{}, err
	}
	out := simOut{evals: evals}
	nGates := int64(len(p.Op))
	for i := range flist {
		out.lanes |= laneOf[i]
		out.nominal += nGates * int64(cyclesOf[i])
		if laneOf[i] != 0 {
			out.newly++
		}
	}
	return out, nil
}

// vectorsFromAssignment converts a PODEM PI assignment (per frame,
// three-valued) into simulator vectors with don't-cares at 0.
func vectorsFromAssignment(nPI int, assign [][]int8) [][]uint64 {
	out := make([][]uint64, len(assign))
	for t, row := range assign {
		v := make([]uint64, nPI)
		for k, val := range row {
			if val == v1 {
				v[k] = ^uint64(0)
			}
		}
		out[t] = v
	}
	return out
}

func count(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

// Replay applies a retained test set to the circuit and fault simulates
// the given fault list, returning the number of detected faults. Each
// sequence starts from reset. Replay independently verifies a campaign's
// coverage claim: replaying Result.TestSet over the same (collapsed,
// sampled) fault list detects at least Result.Detected() faults.
func Replay(c *gates.Circuit, testSet [][][]uint64, flist []fault.Fault) (int, error) {
	p, err := c.Compile()
	if err != nil {
		return 0, err
	}
	detected := make([]bool, len(flist))
	for _, seq := range testSet {
		// Widen single-lane vectors back to full words.
		if _, err := faultSim(p, flist, detected, widenLane(seq), 0); err != nil {
			return 0, err
		}
	}
	return count(detected), nil
}
