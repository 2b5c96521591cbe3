package atpg

import (
	"context"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dfg"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/gates"
)

// redundantCircuit builds z = OR(x, NOT x): constantly 1, so z s-a-1 is
// provably (combinationally) untestable.
func redundantCircuit(t *testing.T) *gates.Circuit {
	t.Helper()
	b := gates.NewBuilder()
	x := b.Input("x")
	z := b.Or(x, b.Not(x))
	b.Output("z", z)
	c, err := b.Done()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// pipelineCircuit builds a 3-deep DFF pipeline whose input-side faults
// need 4 time frames to reach the output.
func pipelineCircuit(t *testing.T) *gates.Circuit {
	t.Helper()
	b := gates.NewBuilder()
	x := b.Input("x")
	q1 := b.DFF("q1")
	q2 := b.DFF("q2")
	q3 := b.DFF("q3")
	b.SetD(q1, x)
	b.SetD(q2, q1)
	b.SetD(q3, q2)
	b.Output("o", q3)
	c, err := b.Done()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestOutcomeSplitUntestableVsFrameBudget is the conflation fix: a
// combinational redundancy is proven untestable, while a sequential fault
// that merely outruns a clamped frame window is frame-budget-limited —
// never claimed untestable.
func TestOutcomeSplitUntestableVsFrameBudget(t *testing.T) {
	// Combinational proof: the redundant fault must come back
	// OutcomeUntestable with a generous backtrack budget.
	cfg := DefaultConfig(1)
	cfg.RandomBatches = 0 // random patterns cannot detect it anyway; keep the run minimal
	cfg.BacktrackLimit = 1000
	res, err := RunCtx(context.Background(), redundantCircuit(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Untestable == 0 {
		t.Errorf("redundant circuit proved no fault untestable: %+v", res)
	}
	if res.FrameLimited != 0 {
		t.Errorf("combinational circuit reported frame-limited faults: %+v", res)
	}
	for i, o := range res.Outcomes {
		if o == OutcomeFrameLimited {
			t.Errorf("fault %d frame-limited on a combinational circuit", i)
		}
	}

	// Frame budget: the depth-3 pipeline under MaxFrames 2 cannot expose
	// its input-side faults, and the decision tree exhausts. That must be
	// OutcomeFrameLimited, not an untestability claim — with MaxFrames 8
	// the same campaign detects them.
	seq := DefaultConfig(1)
	seq.RandomBatches = 0
	seq.BacktrackLimit = 1000
	seq.MaxFrames = 2
	narrow, err := RunCtx(context.Background(), pipelineCircuit(t), seq)
	if err != nil {
		t.Fatal(err)
	}
	if narrow.Untestable != 0 {
		t.Errorf("clamped frame window claimed %d untestable faults: %+v", narrow.Untestable, narrow)
	}
	if narrow.FrameLimited == 0 {
		t.Errorf("no fault reported frame-limited under a too-small window: %+v", narrow)
	}
	seq.MaxFrames = 8
	wide, err := RunCtx(context.Background(), pipelineCircuit(t), seq)
	if err != nil {
		t.Fatal(err)
	}
	if wide.Detected() <= narrow.Detected() {
		t.Errorf("widening the frame window did not recover frame-limited faults: %d vs %d",
			wide.Detected(), narrow.Detected())
	}
}

// TestOutcomeBacktrackLimitedDistinct pins the other half of the split: a
// starved backtrack budget yields OutcomeBacktrackLimited (testability
// unknown), never an untestability proof.
func TestOutcomeBacktrackLimitedDistinct(t *testing.T) {
	c := benchCircuit(t, dfg.BenchTseng, 4)
	cfg := DefaultConfig(5)
	cfg.SampleFaults = 150
	cfg.RandomBatches = 0
	cfg.Restarts = 0
	cfg.BacktrackLimit = 0 // every nontrivial search aborts immediately
	res, err := RunCtx(context.Background(), c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborted == 0 {
		t.Fatalf("zero backtrack budget aborted nothing: %+v", res)
	}
	for i, o := range res.Outcomes {
		if o == OutcomeUntestable {
			t.Errorf("fault %d claimed untestable under a starved backtrack budget", i)
		}
	}
	if res.Status != exec.StatusComplete {
		t.Errorf("budget-limited but finished campaign is %v, want complete", res.Status)
	}
}

// TestOutcomesConsistentWithCounters cross-checks the per-fault outcome
// vector against the aggregate counters on a real campaign.
func TestOutcomesConsistentWithCounters(t *testing.T) {
	c := benchCircuit(t, dfg.BenchTseng, 4)
	cfg := DefaultConfig(7)
	cfg.SampleFaults = 200
	cfg.RandomBatches = 2
	res, err := RunCtx(context.Background(), c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != res.TotalFaults {
		t.Fatalf("outcome vector covers %d of %d faults", len(res.Outcomes), res.TotalFaults)
	}
	tally := map[Outcome]int{}
	for _, o := range res.Outcomes {
		tally[o]++
	}
	if tally[OutcomeNone] != 0 {
		t.Errorf("%d faults left unresolved in a complete campaign", tally[OutcomeNone])
	}
	if got := tally[OutcomeDetectedRandom]; got != res.RandomDetected {
		t.Errorf("random outcomes %d, counter %d", got, res.RandomDetected)
	}
	if got := tally[OutcomeDetectedPodem] + tally[OutcomeDetectedDrop]; got != res.DetDetected {
		t.Errorf("deterministic outcomes %d, counter %d", got, res.DetDetected)
	}
	if got := tally[OutcomeUntestable]; got != res.Untestable {
		t.Errorf("untestable outcomes %d, counter %d", got, res.Untestable)
	}
	if got := tally[OutcomeFrameLimited]; got != res.FrameLimited {
		t.Errorf("frame-limited outcomes %d, counter %d", got, res.FrameLimited)
	}
	if got := tally[OutcomeBacktrackLimited]; got != res.Aborted {
		t.Errorf("backtrack outcomes %d, counter %d", got, res.Aborted)
	}
	detected := 0
	for _, o := range res.Outcomes {
		if o.Detected() {
			detected++
		}
	}
	if detected != res.Detected() {
		t.Errorf("Outcome.Detected tally %d, Result.Detected %d", detected, res.Detected())
	}
}

// TestCampaignPanicIsolation is the injected-panic acceptance criterion:
// a fault whose PODEM evaluation panics yields a structured ExecError and
// a Partial campaign; the process never crashes and every remaining fault
// is still processed.
func TestCampaignPanicIsolation(t *testing.T) {
	c := benchCircuit(t, dfg.BenchTseng, 4)
	for _, workers := range []int{1, 4} {
		cfg := DefaultConfig(9)
		cfg.SampleFaults = 120
		cfg.RandomBatches = 1
		cfg.Workers = workers
		var searches atomic.Int32
		cfg.testHookSearch = func(i int) {
			if searches.Add(1) <= 3 { // poison the first few searches
				panic("podem blew up")
			}
		}
		res, err := RunCtx(context.Background(), c, cfg)
		if err != nil {
			t.Fatalf("workers=%d: isolated panic escaped as error: %v", workers, err)
		}
		if res.Status != exec.StatusPartial || res.Exhausted != exec.BudgetPanic {
			t.Fatalf("workers=%d: status %v/%q, want partial/panic", workers, res.Status, res.Exhausted)
		}
		if len(res.Errors) == 0 {
			t.Fatalf("workers=%d: no ExecError recorded", workers)
		}
		for _, ee := range res.Errors {
			if ee.Stage != "atpg.podem" || ee.Value != "podem blew up" || len(ee.Stack) == 0 {
				t.Errorf("workers=%d: malformed ExecError %+v", workers, ee)
			}
			if res.Outcomes[ee.Index] != OutcomePanicked {
				t.Errorf("workers=%d: fault %d outcome %v, want panicked", workers, ee.Index, res.Outcomes[ee.Index])
			}
		}
		// Every non-poisoned fault must still be resolved.
		for i, o := range res.Outcomes {
			if o == OutcomeNone || o == OutcomeSkipped {
				t.Errorf("workers=%d: fault %d left %v after isolated panics", workers, i, o)
			}
		}
		if res.Coverage <= 0 {
			t.Errorf("workers=%d: no coverage despite processing remaining faults", workers)
		}
		if !strings.Contains(res.String(), "partial") {
			t.Errorf("workers=%d: partial result renders without marker: %s", workers, res)
		}
	}
}

// TestCampaignPartialOnCancelledDeterministicPhase uses the test hook to
// cancel the context between the random and deterministic phases: the
// campaign must come back Partial with exactly the random-phase coverage
// and the unsearched faults counted as Skipped — deterministically, with
// no wall clock involved.
func TestCampaignPartialOnCancelledDeterministicPhase(t *testing.T) {
	c := benchCircuit(t, dfg.BenchTseng, 4)
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		cfg := DefaultConfig(11)
		cfg.SampleFaults = 200
		cfg.RandomBatches = 2
		cfg.Workers = workers
		cfg.testHookAfterRandom = cancel
		res, err := RunCtx(ctx, c, cfg)
		cancel()
		if err != nil {
			t.Fatalf("workers=%d: cancellation surfaced as error: %v", workers, err)
		}
		if res.Status != exec.StatusPartial || res.Exhausted != exec.BudgetDeadline {
			t.Fatalf("workers=%d: status %v/%q, want partial/deadline", workers, res.Status, res.Exhausted)
		}
		if res.RandomDetected == 0 || res.Coverage <= 0 {
			t.Errorf("workers=%d: partial result lost the random phase: %+v", workers, res)
		}
		if res.DetDetected != 0 {
			t.Errorf("workers=%d: deterministic detections after cancellation: %d", workers, res.DetDetected)
		}
		if res.Skipped != res.TotalFaults-res.RandomDetected {
			t.Errorf("workers=%d: skipped %d, want %d", workers, res.Skipped, res.TotalFaults-res.RandomDetected)
		}
		// The partial result must still satisfy the replay invariant: the
		// retained test set reproduces the claimed detections.
		flist := fault.Sample(fault.Collapse(c), cfg.SampleFaults)
		got, rerr := Replay(c, res.TestSet, flist)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if got < res.Detected() {
			t.Errorf("workers=%d: replay detected %d, partial campaign claimed %d", workers, got, res.Detected())
		}
	}
}

// TestCampaignAlreadyCancelled: a dead context still returns a valid
// (empty-coverage) partial result, not an error.
func TestCampaignAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := benchCircuit(t, dfg.BenchTseng, 4)
	cfg := DefaultConfig(3)
	cfg.SampleFaults = 100
	res, err := RunCtx(ctx, c, cfg)
	if err != nil {
		t.Fatalf("dead context errored: %v", err)
	}
	if res.Status != exec.StatusPartial || res.Exhausted != exec.BudgetDeadline {
		t.Fatalf("status %v/%q", res.Status, res.Exhausted)
	}
	if res.Skipped != res.TotalFaults {
		t.Errorf("skipped %d of %d", res.Skipped, res.TotalFaults)
	}
	if res.Coverage != 0 || len(res.TestSet) != 0 {
		t.Errorf("work happened under a dead context: %+v", res)
	}
}

// TestCampaignPartialWorkersEquivalence extends the determinism contract
// to hook-cancelled partial campaigns: the partial Result must be
// bit-identical at every worker count.
func TestCampaignPartialWorkersEquivalence(t *testing.T) {
	c := benchCircuit(t, dfg.BenchTseng, 4)
	run := func(workers int) *Result {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		cfg := DefaultConfig(13)
		cfg.SampleFaults = 150
		cfg.RandomBatches = 1
		cfg.Workers = workers
		cfg.testHookAfterRandom = cancel
		res, err := RunCtx(ctx, c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(1)
	for _, workers := range []int{2, 8} {
		if got := run(workers); !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d partial result diverges:\n%+v\nvs\n%+v", workers, got, want)
		}
	}
}

func TestOutcomeString(t *testing.T) {
	for o := OutcomeNone; o <= OutcomePanicked; o++ {
		if s := o.String(); s == "" || strings.HasPrefix(s, "Outcome(") {
			t.Errorf("outcome %d renders %q", int(o), s)
		}
	}
	if s := Outcome(200).String(); !strings.HasPrefix(s, "Outcome(") {
		t.Errorf("unknown outcome renders %q", s)
	}
}

// TestCampaignLeavesNoGoroutines: the campaign's random-phase and PODEM
// pools must be fully reaped when RunCtx returns — on clean completion
// and on cancellation alike.
func TestCampaignLeavesNoGoroutines(t *testing.T) {
	c := pipelineCircuit(t)
	settle := func(name string, baseline int) {
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if runtime.NumGoroutine() <= baseline {
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		t.Errorf("%s: goroutines leaked: %d before, %d after", name, baseline, runtime.NumGoroutine())
	}

	base := runtime.NumGoroutine()
	cfg := DefaultConfig(5)
	cfg.Workers = 8
	cfg.RandomBatches = 1
	cfg.Restarts = 1
	if _, err := RunCtx(context.Background(), c, cfg); err != nil {
		t.Fatal(err)
	}
	settle("clean run", base)

	base = runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunCtx(ctx, c, cfg); err != nil {
		t.Fatal(err)
	}
	settle("cancelled run", base)
}
