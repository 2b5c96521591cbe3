package parallel

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/exec"
)

// samplePeakGoroutines runs fn while polling the process goroutine count,
// returning the peak and the settled count a little after fn returns (the
// same harness as internal/report/concurrency_test.go).
func samplePeakGoroutines(fn func()) (peak, settled int) {
	done := make(chan struct{})
	var peakCount atomic.Int64
	go func() {
		for {
			select {
			case <-done:
				return
			default:
			}
			if g := int64(runtime.NumGoroutine()); g > peakCount.Load() {
				peakCount.Store(g)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}()
	fn()
	close(done)
	// Give exited workers a moment to be reaped before the settled sample.
	deadline := time.Now().Add(2 * time.Second)
	settled = runtime.NumGoroutine()
	base := settled
	for time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
		settled = runtime.NumGoroutine()
		if settled <= base {
			base = settled
		}
	}
	return int(peakCount.Load()), base
}

// TestForEachPanicBecomesExecError is the satellite regression: a
// panicking job is recovered on its worker, reported as an *exec.ExecError
// with the correct index via the smallest-index contract, sibling jobs all
// still run, and no goroutines leak.
func TestForEachPanicBecomesExecError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		const n = 200
		before := runtime.NumGoroutine()
		var ran atomic.Int32
		var err error
		_, settled := samplePeakGoroutines(func() {
			err = ForEachCtx(context.Background(), workers, n, func(i int) error {
				ran.Add(1)
				if i == 41 || i == 97 {
					panic("job blew up")
				}
				return nil
			})
		})
		ee, ok := exec.AsExecError(err)
		if !ok {
			t.Fatalf("workers=%d: err %v (%T) is not an ExecError", workers, err, err)
		}
		if ee.Index != 41 {
			t.Errorf("workers=%d: reported index %d, want 41 (smallest)", workers, ee.Index)
		}
		if ee.Stage != "parallel.job" {
			t.Errorf("workers=%d: stage %q", workers, ee.Stage)
		}
		if len(ee.Stack) == 0 {
			t.Errorf("workers=%d: no stack captured", workers)
		}
		// The parallel path drains every job even after a panic; the
		// sequential path stops at the first one, like a plain loop.
		if workers > 1 && ran.Load() != n {
			t.Errorf("workers=%d: only %d of %d jobs ran", workers, ran.Load(), n)
		}
		if settled > before+2 {
			t.Errorf("workers=%d: goroutines leaked: %d before, %d after", workers, before, settled)
		}
	}
}

func TestOrderedPanicBecomesExecError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var committed []int
		err := OrderedCtx(context.Background(), workers, 60,
			func(i int) (int, error) {
				if i == 25 {
					panic("produce blew up")
				}
				return i, nil
			},
			func(i, v int) error {
				committed = append(committed, i)
				return nil
			})
		ee, ok := exec.AsExecError(err)
		if !ok {
			t.Fatalf("workers=%d: err %v is not an ExecError", workers, err)
		}
		if ee.Index != 25 || ee.Stage != "parallel.produce" {
			t.Errorf("workers=%d: got stage %q index %d, want parallel.produce 25", workers, ee.Stage, ee.Index)
		}
		if len(committed) != 25 {
			t.Errorf("workers=%d: %d commits before the panic index, want 25", workers, len(committed))
		}
		for i, c := range committed {
			if c != i {
				t.Fatalf("workers=%d: commit order broken at %d", workers, i)
			}
		}
	}
}

func TestOrderedCommitPanicBecomesExecError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := OrderedCtx(context.Background(), workers, 30,
			func(i int) (int, error) { return i, nil },
			func(i, v int) error {
				if i == 12 {
					panic("commit blew up")
				}
				return nil
			})
		ee, ok := exec.AsExecError(err)
		if !ok || ee.Index != 12 || ee.Stage != "parallel.commit" {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
	}
}

func TestForEachCtxAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		ran := atomic.Int32{}
		err := ForEachCtx(ctx, workers, 100, func(i int) error {
			ran.Add(1)
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if ran.Load() != 0 {
			t.Errorf("workers=%d: %d jobs ran under a dead context", workers, ran.Load())
		}
	}
}

func TestForEachCtxCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	err := ForEachCtx(ctx, 4, 500, func(i int) error {
		if ran.Add(1) == 50 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n >= 500 {
		t.Errorf("all %d jobs ran despite cancellation", n)
	}
}

func TestOrderedCtxCleanPrefixOnCancel(t *testing.T) {
	// Cancelling from commit must leave a clean committed prefix and
	// surface ctx.Err(): indices below the cancellation point all land,
	// nothing after the first cancelled index commits.
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var committed []int
		err := OrderedCtx(ctx, workers, 300,
			func(i int) (int, error) { return i, nil },
			func(i, v int) error {
				committed = append(committed, i)
				if i == 20 {
					cancel()
				}
				return nil
			})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if len(committed) < 21 {
			t.Errorf("workers=%d: only %d commits, want the full prefix through 20", workers, len(committed))
		}
		for i, c := range committed {
			if c != i {
				t.Fatalf("workers=%d: commit order broken at %d", workers, i)
			}
		}
	}
}

func TestOrderedCtxAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		err := OrderedCtx(ctx, workers, 40,
			func(i int) (int, error) { t.Error("produced under dead context"); return i, nil },
			func(i, v int) error { t.Error("committed under dead context"); return nil })
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v", workers, err)
		}
	}
}

func TestForEachCtxDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	var ran atomic.Int32
	err := ForEachCtx(ctx, 2, 1_000_000, func(i int) error {
		ran.Add(1)
		time.Sleep(100 * time.Microsecond)
		return nil
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if n := ran.Load(); n >= 1_000_000 {
		t.Errorf("deadline did not stop the loop (%d jobs ran)", n)
	}
}

// TestOrderedCtxDoubleCancel: cancellation arriving twice — once from
// inside the commit callback and once from a concurrent goroutine — must
// behave exactly like a single cancellation: clean prefix, ctx error, no
// second-cancel panic, no leaked worker.
func TestOrderedCtxDoubleCancel(t *testing.T) {
	for _, workers := range []int{1, 4} {
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		release := make(chan struct{})
		go func() {
			<-release
			cancel() // the concurrent second cancel
		}()
		var committed []int
		var err error
		_, settled := samplePeakGoroutines(func() {
			err = OrderedCtx(ctx, workers, 400,
				func(i int) (int, error) { return i, nil },
				func(i, v int) error {
					committed = append(committed, i)
					if i == 15 {
						close(release)
						cancel()
					}
					return nil
				})
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		for i, c := range committed {
			if c != i {
				t.Fatalf("workers=%d: commit order broken at %d", workers, i)
			}
		}
		if settled > before+2 {
			t.Errorf("workers=%d: goroutines leaked: %d before, %d after", workers, before, settled)
		}
	}
}

// TestOrderedCtxDrainAfterError: when produce fails at an index, workers
// speculating past it must all run to completion and exit — the commit
// loop stops early, but nothing blocks and nothing leaks.
func TestOrderedCtxDrainAfterError(t *testing.T) {
	boom := errors.New("produce failed")
	for _, workers := range []int{1, 4} {
		before := runtime.NumGoroutine()
		var produced atomic.Int32
		var committed []int
		var err error
		_, settled := samplePeakGoroutines(func() {
			err = OrderedCtx(context.Background(), workers, 120,
				func(i int) (int, error) {
					produced.Add(1)
					if i == 30 {
						return 0, boom
					}
					return i, nil
				},
				func(i, v int) error {
					committed = append(committed, i)
					return nil
				})
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want the produce error", workers, err)
		}
		if len(committed) != 30 {
			t.Errorf("workers=%d: %d commits, want exactly the prefix before the failure", workers, len(committed))
		}
		if p := produced.Load(); p < 31 {
			t.Errorf("workers=%d: only %d produced; the failing index never ran?", workers, p)
		}
		if settled > before+2 {
			t.Errorf("workers=%d: goroutines leaked after drain: %d before, %d after", workers, before, settled)
		}
	}
}
