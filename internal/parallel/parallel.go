// Package parallel provides the bounded worker pool and deterministic
// ordered-merge helpers behind the system's evaluation hot paths: fault
// simulation, the deterministic ATPG phase, the tie-policy exploration of
// core.SynthesizeCtx and the experiment fan-out of cmd/hltsbench.
//
// Every helper makes the same guarantee: the observable result is
// independent of the worker count and of goroutine scheduling, and a
// worker count of 1 degenerates to a plain sequential loop with no
// goroutines at all. Callers uphold their half of the contract by making
// each job a pure function of its index (writes go to slot i of a result
// slice) and by funnelling all shared mutable state through the ordered
// commit callback of OrderedCtx.
//
// The pool is hardened (package exec): a panic inside a job is recovered
// on its worker and reported as an *exec.ExecError through the ordinary
// smallest-index error contract — one crashing job never takes down the
// process or the sibling jobs, which always run to completion. Every
// helper also checks for cancellation at each iteration boundary: a
// cancelled context makes the unstarted jobs report ctx.Err() while the
// already-started ones drain normally.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/chaos"
	"repro/internal/exec"
)

// Workers normalizes a worker-count knob: values below 1 mean "one worker
// per available CPU" (runtime.GOMAXPROCS(0)), and the result is always at
// least 1 so no knob value can construct an empty pool.
func Workers(n int) int {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Split divides one worker budget between an outer fan-out over n jobs
// and the parallelism inside each job: outer workers run jobs
// concurrently, and each job may use up to inner workers internally, with
// outer*inner never exceeding Workers(workers). Nesting two parallel
// layers without Split multiplies the two knobs into workers² goroutines;
// with it, the outer fan-out takes priority (it has the coarser, better-
// balanced work) and the inner budget is whatever the budget has left —
// inner is 1 whenever the outer layer can already keep every worker busy.
// Both halves of the returned budget are clamped to at least 1, whatever
// the inputs: a zero or negative flag value degrades to sequential
// execution instead of an empty pool.
func Split(workers, n int) (outer, inner int) {
	w := Workers(workers)
	outer = w
	if n >= 1 && outer > n {
		outer = n
	}
	if outer < 1 {
		outer = 1
	}
	inner = w / outer
	if inner < 1 {
		inner = 1
	}
	return outer, inner
}

// ForEachCtx runs fn(i) for every i in [0, n) on up to `workers`
// goroutines (after Workers normalization) and returns the recorded error
// with the smallest index, matching what a sequential loop would return.
// fn's observable effects must depend only on i, never on which worker
// runs it or in what order; under that contract the result is identical at
// every worker count. A panicking fn is recovered and reported as an
// *exec.ExecError carrying its index.
//
// The context is checked before every job, and a job whose turn comes
// after cancellation records ctx.Err() instead of running. Already-running
// jobs drain normally (they are index-pure, so letting them finish is
// side-effect free).
func ForEachCtx(ctx context.Context, workers, n int, fn func(i int) error) error {
	return ForEachWorkerCtx(ctx, workers, n,
		func() (struct{}, error) { return struct{}{}, nil },
		func(_ struct{}, i int) error { return fn(i) })
}

// ForEachWorkerCtx is ForEachCtx with per-worker state: setup runs once on
// each worker goroutine — typically to allocate a private simulator — and
// its result is passed to every fn call that worker executes. Indices are
// distributed dynamically, so fn must not care which worker's state it
// receives beyond reusing it as scratch space. Cancellation follows the
// iteration-boundary contract of ForEachCtx.
//
// On error the parallel path still finishes the remaining jobs (jobs are
// index-independent, so this is side-effect free) and reports the
// smallest-index error; the sequential path stops at the first error,
// which under the purity contract is the same one.
func ForEachWorkerCtx[S any](ctx context.Context, workers, n int, setup func() (S, error), fn func(s S, i int) error) error {
	if n <= 0 {
		return nil
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		s, err := setup()
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			if err := workOne(ctx, fn, s, i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	setupErrs := make([]error, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s, err := setup()
			if err != nil {
				setupErrs[w] = err
				return
			}
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = workOne(ctx, fn, s, i)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range setupErrs {
		if err != nil {
			return err
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// workOne is the per-claim body shared by the sequential and parallel
// paths of ForEachWorkerCtx: chaos claim/stall sites, the cancellation
// check, then the guarded job. The top-level recover is the worker
// goroutine's last resort — a panic raised outside the per-job guard
// (today only the injected claim-site panic can do that) still becomes a
// typed error at index i instead of crashing the pool.
func workOne[S any](ctx context.Context, fn func(s S, i int) error, s S, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = exec.Recovered("parallel.worker", i, r)
		}
	}()
	if err := claimStep(i); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return runJob(fn, s, i)
}

// runJob executes one job under panic isolation: a panic becomes an
// *exec.ExecError carrying the job index, recovered on the worker before
// it can unwind into the pool (or, on the sequential path, the caller).
func runJob[S any](fn func(s S, i int) error, s S, i int) error {
	return exec.Guard("parallel.job", i, func() error {
		if err := chaos.Step(chaos.SiteParallelJob); err != nil {
			return err
		}
		return fn(s, i)
	})
}

// OrderedCtx runs produce(i) for every i in [0, n) on up to `workers`
// goroutines and calls commit(i, v) strictly in increasing index order on
// the calling goroutine. This is the speculative-pipeline primitive: a
// later index may be produced before an earlier one commits, so produce
// must be a pure function of its index (plus any caller-managed atomic
// flags published by commit — a produce that consults such a flag may
// return a cheap placeholder, which commit is then responsible for
// recognizing and discarding). commit owns all shared mutable state and
// needs no locking.
//
// The first error observed in commit order — whether from produce, from
// commit itself, or an *exec.ExecError recovered from a panic in either —
// aborts the run after the in-flight jobs drain, exactly mirroring the
// sequential produce/commit loop.
//
// The context is checked before each produce and each commit. A job whose
// production turn comes after cancellation records ctx.Err(), which then
// surfaces in commit order — so every commit with a smaller index than the
// cancellation point still lands, and the caller observes a clean prefix
// plus ctx.Err().
func OrderedCtx[T any](ctx context.Context, workers, n int, produce func(i int) (T, error), commit func(i int, v T) error) error {
	if n <= 0 {
		return nil
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := claimStep(i); err != nil {
				return err
			}
			if err := ctx.Err(); err != nil {
				return err
			}
			v, err := runProduce(produce, i)
			if err != nil {
				return err
			}
			if err := runCommit(commit, i, v); err != nil {
				return err
			}
		}
		return nil
	}
	results := make([]T, n)
	errs := make([]error, n)
	ready := make([]chan struct{}, n)
	for i := range ready {
		ready[i] = make(chan struct{})
	}
	var next atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				produceOne(ctx, produce, results, errs, ready, &stop, i)
			}
		}()
	}
	var err error
	for i := 0; i < n; i++ {
		<-ready[i]
		if errs[i] != nil {
			err = errs[i]
			break
		}
		if cerr := ctx.Err(); cerr != nil {
			err = cerr
			break
		}
		if cerr := runCommit(commit, i, results[i]); cerr != nil {
			err = cerr
			break
		}
	}
	stop.Store(true)
	wg.Wait()
	return err
}

// produceOne runs one claimed index on a pool worker. The ordering of its
// deferred calls is the liveness invariant of OrderedCtx: the recover runs
// before close(ready[i]), so whatever happens on this index — an injected
// claim-site panic included — errs[i] is populated and ready[i] is closed,
// and the commit loop can never block forever on a claimed index.
func produceOne[T any](ctx context.Context, produce func(i int) (T, error), results []T, errs []error, ready []chan struct{}, stop *atomic.Bool, i int) {
	defer close(ready[i])
	defer func() {
		if r := recover(); r != nil {
			errs[i] = exec.Recovered("parallel.worker", i, r)
		}
	}()
	if err := claimStep(i); err != nil {
		errs[i] = err
		return
	}
	if err := ctx.Err(); err != nil {
		errs[i] = err
	} else if !stop.Load() {
		results[i], errs[i] = runProduce(produce, i)
	}
}

// claimStep fires the claim/stall chaos sites for one claimed index. On
// the sequential paths (no produceOne recover above it) an injected claim
// panic is converted here, keeping the no-escaped-panic contract at every
// worker count.
func claimStep(i int) (err error) {
	if chaos.Active() == nil {
		return nil
	}
	defer func() {
		if r := recover(); r != nil {
			err = exec.Recovered("parallel.worker", i, r)
		}
	}()
	if err := chaos.Step(chaos.SiteParallelClaim); err != nil {
		return err
	}
	return chaos.Step(chaos.SiteParallelStall)
}

// runProduce and runCommit are the panic-isolation points of OrderedCtx:
// produce panics are recovered on the producing worker, commit panics on
// the calling goroutine, both as *exec.ExecError with the job index.
func runProduce[T any](produce func(i int) (T, error), i int) (T, error) {
	return exec.Guard1("parallel.produce", i, func() (T, error) {
		if err := chaos.Step(chaos.SiteParallelProduce); err != nil {
			var zero T
			return zero, err
		}
		return produce(i)
	})
}

func runCommit[T any](commit func(i int, v T) error, i int, v T) error {
	return exec.Guard("parallel.commit", i, func() error {
		if err := chaos.Step(chaos.SiteParallelCommit); err != nil {
			return err
		}
		return commit(i, v)
	})
}
