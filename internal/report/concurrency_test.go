package report

import (
	"context"
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
// layers into up to workers² goroutines; RunTableCtx's cell fan-out once
// ran a fixed number of cells concurrently whatever the budget, 4 at
// Workers 1. With the budget split, neither may ever run more than
// `workers` pool goroutines at once.
func TestSweepRespectsWorkerBudget(t *testing.T) {
	for _, workers := range []int{4, 1} {
		tableCfg := fastConfig(1)
		tableCfg.Workers = workers
		for _, tc := range []struct {
			name string
			run  func() error
		}{
			{"ParameterSweep", func() error {
				_, err := ParameterSweep(dfg.BenchEx, 4, workers, nil)
				return err
			}},
			{"RunTableCtx", func() error {
				_, err := RunTableCtx(context.Background(), dfg.BenchEx, tableCfg)
				return err
			}},
		} {
			baseline := runtime.NumGoroutine()
			var peak int
			// A few repetitions give the sampler enough chances to catch the
			// widest moment of the fan-out.
			for i := 0; i < 3; i++ {
				p := samplePeakGoroutines(func() {
					if err := tc.run(); err != nil {
						t.Fatal(err)
					}
				})
				if p > peak {
					peak = p
				}
			}
			// Budget: `workers` pool goroutines, plus the sampler and a little
			// slack for runtime-internal goroutines that may appear. The
			// pre-fix nested fan-out reached baseline + workers + workers², and
			// the fixed cell fan-out baseline + 5 at one worker; both trip
			// this.
			limit := baseline + workers + 3
			if peak > limit {
				t.Errorf("%s at %d workers: peak goroutines %d exceeds budgeted limit %d (baseline %d): nested fan-out is oversubscribing",
					tc.name, workers, peak, limit, baseline)
			}
		}
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
