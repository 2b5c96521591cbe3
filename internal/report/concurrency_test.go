package report

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/dfg"
)

// samplePeakGoroutines polls runtime.NumGoroutine while fn runs and
// returns the highest count observed (including the sampler itself).
func samplePeakGoroutines(fn func()) int {
	stop := make(chan struct{})
	var mu sync.Mutex
	peak := runtime.NumGoroutine()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			n := runtime.NumGoroutine()
			mu.Lock()
			if n > peak {
				peak = n
			}
			mu.Unlock()
			time.Sleep(20 * time.Microsecond)
		}
	}()
	fn()
	close(stop)
	wg.Wait()
	return peak
}

// TestSweepRespectsWorkerBudget is the regression test for the nested
// fan-out bug: ParameterSweep once ran its grid on `workers` goroutines
// AND granted each grid point the full `workers` budget for the
// tie-policy exploration inside core.SynthesizeCtx, multiplying the two
// layers into up to workers² goroutines. With the budget split, the
// whole sweep must never run more than `workers` pool goroutines at
// once.
func TestSweepRespectsWorkerBudget(t *testing.T) {
	const workers = 4
	baseline := runtime.NumGoroutine()
	var peak int
	// A few repetitions give the sampler enough chances to catch the
	// widest moment of the fan-out.
	for i := 0; i < 3; i++ {
		p := samplePeakGoroutines(func() {
			if _, err := ParameterSweep(dfg.BenchEx, 4, workers, nil); err != nil {
				t.Fatal(err)
			}
		})
		if p > peak {
			peak = p
		}
	}
	// Budget: `workers` pool goroutines, plus the sampler and a little
	// slack for runtime-internal goroutines that may appear. The pre-fix
	// nested fan-out reached baseline + workers + workers² and trips
	// this comfortably.
	limit := baseline + workers + 3
	if peak > limit {
		t.Errorf("peak goroutines %d exceeds budgeted limit %d (baseline %d, workers %d): nested fan-out is oversubscribing",
			peak, limit, baseline, workers)
	}
}

// TestSweepLeavesNoGoroutines: after a sweep returns, every worker it
// spawned must be gone — the pools are scoped to the call, not the
// process.
func TestSweepLeavesNoGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	if _, err := ParameterSweep(dfg.BenchEx, 4, 4, nil); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d before the sweep, %d after", baseline, runtime.NumGoroutine())
}
