package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkersNormalization(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3) = %d", got)
	}
	if got := Workers(1); got != 1 {
		t.Errorf("Workers(1) = %d", got)
	}
	if got := Workers(7); got != 7 {
		t.Errorf("Workers(7) = %d", got)
	}
}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		const n = 500
		hits := make([]int32, n)
		err := ForEachCtx(context.Background(), workers, n, func(i int) error {
			atomic.AddInt32(&hits[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, h)
			}
		}
	}
}

func TestForEachEmptyAndTiny(t *testing.T) {
	if err := ForEachCtx(context.Background(), 8, 0, func(int) error { t.Fatal("ran"); return nil }); err != nil {
		t.Fatal(err)
	}
	ran := false
	if err := ForEachCtx(context.Background(), 8, 1, func(i int) error { ran = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("single job skipped")
	}
}

func TestForEachReturnsSmallestIndexError(t *testing.T) {
	errAt := func(i int) error { return fmt.Errorf("job %d failed", i) }
	for _, workers := range []int{1, 4} {
		err := ForEachCtx(context.Background(), workers, 100, func(i int) error {
			if i == 17 || i == 63 {
				return errAt(i)
			}
			return nil
		})
		if err == nil || err.Error() != "job 17 failed" {
			t.Errorf("workers=%d: err = %v, want job 17", workers, err)
		}
	}
}

func TestForEachWorkerStateIsPerWorker(t *testing.T) {
	// Each worker's state must be confined to that worker: a non-atomic
	// counter inside the state would race if states were shared.
	type scratch struct{ uses int }
	var created atomic.Int32
	const n = 300
	total := make([]int32, n)
	err := ForEachWorkerCtx(context.Background(), 4, n,
		func() (*scratch, error) {
			created.Add(1)
			return &scratch{}, nil
		},
		func(s *scratch, i int) error {
			s.uses++ // races iff state is shared between workers
			atomic.AddInt32(&total[i], 1)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if c := created.Load(); c < 1 || c > 4 {
		t.Errorf("created %d states", c)
	}
	for i, h := range total {
		if h != 1 {
			t.Fatalf("index %d ran %d times", i, h)
		}
	}
}

func TestForEachWorkerSetupError(t *testing.T) {
	boom := errors.New("setup failed")
	err := ForEachWorkerCtx(context.Background(), 4, 10,
		func() (int, error) { return 0, boom },
		func(int, int) error { return nil })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestOrderedCommitsInOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		const n = 400
		var committed []int
		err := OrderedCtx(context.Background(), workers, n,
			func(i int) (int, error) { return i * i, nil },
			func(i, v int) error {
				if v != i*i {
					t.Fatalf("commit %d got %d", i, v)
				}
				committed = append(committed, i)
				return nil
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(committed) != n {
			t.Fatalf("workers=%d: committed %d of %d", workers, len(committed), n)
		}
		for i, c := range committed {
			if c != i {
				t.Fatalf("workers=%d: commit order broken at %d: %v...", workers, i, committed[:i+1])
			}
		}
	}
}

// TestOrderedSpeculationFlags exercises the drop-flag pattern used by the
// ATPG deterministic phase: commit publishes atomic flags that later
// produces consult, and flagged results are discarded at commit. The
// committed sum must be identical at every worker count.
func TestOrderedSpeculationFlags(t *testing.T) {
	const n = 256
	run := func(workers int) int {
		dropped := make([]atomic.Bool, n)
		sum := 0
		err := OrderedCtx(context.Background(), workers, n,
			func(i int) (int, error) {
				if dropped[i].Load() {
					return 0, nil // placeholder; commit discards it
				}
				return i, nil
			},
			func(i, v int) error {
				if dropped[i].Load() {
					return nil
				}
				sum += v
				// Every multiple of 3 drops the next two indices.
				if i%3 == 0 {
					for _, j := range []int{i + 1, i + 2} {
						if j < n {
							dropped[j].Store(true)
						}
					}
				}
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return sum
	}
	want := run(1)
	for _, workers := range []int{2, 4, 8} {
		if got := run(workers); got != want {
			t.Errorf("workers=%d: sum %d, want %d", workers, got, want)
		}
	}
}

func TestOrderedProduceErrorStopsAtIndex(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var committed []int
		err := OrderedCtx(context.Background(), workers, 50,
			func(i int) (int, error) {
				if i == 20 {
					return 0, errors.New("produce 20")
				}
				return i, nil
			},
			func(i, v int) error {
				committed = append(committed, i)
				return nil
			})
		if err == nil || err.Error() != "produce 20" {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		if len(committed) != 20 {
			t.Fatalf("workers=%d: committed %d indices, want 20", workers, len(committed))
		}
	}
}

func TestOrderedCommitErrorAborts(t *testing.T) {
	for _, workers := range []int{1, 4} {
		count := 0
		err := OrderedCtx(context.Background(), workers, 50,
			func(i int) (int, error) { return i, nil },
			func(i, v int) error {
				count++
				if i == 10 {
					return errors.New("commit 10")
				}
				return nil
			})
		if err == nil || err.Error() != "commit 10" {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		if count != 11 {
			t.Fatalf("workers=%d: %d commits, want 11", workers, count)
		}
	}
}

// TestPoolStress hammers both primitives with more workers than CPUs so
// `go test -race` explores real interleavings.
func TestPoolStress(t *testing.T) {
	const rounds = 20
	for r := 0; r < rounds; r++ {
		const n = 1000
		out := make([]int64, n)
		if err := ForEachCtx(context.Background(), 16, n, func(i int) error {
			out[i] = int64(i) * 3
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		var sum int64
		if err := OrderedCtx(context.Background(), 16, n,
			func(i int) (int64, error) { return out[i], nil },
			func(i int, v int64) error { sum += v; return nil },
		); err != nil {
			t.Fatal(err)
		}
		if want := int64(n) * (n - 1) / 2 * 3; sum != want {
			t.Fatalf("round %d: sum %d, want %d", r, sum, want)
		}
	}
}

func TestSplitBudgetInvariant(t *testing.T) {
	for workers := -1; workers <= 20; workers++ {
		for n := 0; n <= 20; n++ {
			outer, inner := Split(workers, n)
			w := Workers(workers)
			if outer < 1 || inner < 1 {
				t.Fatalf("Split(%d, %d) = (%d, %d): layers must be at least 1", workers, n, outer, inner)
			}
			if outer*inner > w {
				t.Fatalf("Split(%d, %d) = (%d, %d): %d×%d exceeds the budget %d", workers, n, outer, inner, outer, inner, w)
			}
			if n >= 1 && outer > n {
				t.Fatalf("Split(%d, %d) = (%d, %d): more outer workers than jobs", workers, n, outer, inner)
			}
			// Fewer jobs than budget: the leftover must flow inward.
			if n >= 1 && n < w && inner < w/n {
				t.Fatalf("Split(%d, %d) = (%d, %d): inner budget %d wastes the pool (want >= %d)", workers, n, outer, inner, inner, w/n)
			}
		}
	}
	// The documented headline case: a wide outer fan-out leaves inner = 1.
	if outer, inner := Split(8, 100); outer != 8 || inner != 1 {
		t.Errorf("Split(8, 100) = (%d, %d), want (8, 1)", outer, inner)
	}
	// And a narrow fan-out hands the budget to the inner layer.
	if outer, inner := Split(8, 2); outer != 2 || inner != 4 {
		t.Errorf("Split(8, 2) = (%d, %d), want (2, 4)", outer, inner)
	}
}

// TestSplitClampsDegenerateBudgets is the satellite regression for the
// zero/negative clamp: no input, however hostile, may yield a layer
// below 1 — a zero would turn downstream ForEachCtx(outer*...) into a no-op
// and silently skip work.
func TestSplitClampsDegenerateBudgets(t *testing.T) {
	cases := []struct{ workers, n int }{
		{0, 0}, {0, -1}, {-1, 0}, {-8, -8},
		{1, -5}, {-1000000, 3}, {3, -1000000},
	}
	for _, c := range cases {
		outer, inner := Split(c.workers, c.n)
		if outer < 1 || inner < 1 {
			t.Errorf("Split(%d, %d) = (%d, %d); both layers must clamp to >= 1", c.workers, c.n, outer, inner)
		}
		if w := Workers(c.workers); outer*inner > w {
			t.Errorf("Split(%d, %d) = (%d, %d) exceeds the normalized budget %d", c.workers, c.n, outer, inner, w)
		}
	}
	if got := Workers(-1000000); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-1000000) = %d, want GOMAXPROCS", got)
	}
}
