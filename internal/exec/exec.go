// Package exec is the hardened execution layer shared by the synthesis
// and ATPG pipelines: structured panic capture, the Partial/Complete
// status vocabulary for budget-degraded results, and the guard helpers
// the library boundaries use to convert internal panics into typed
// errors.
//
// The failure policy it implements (DESIGN.md "Failure semantics"):
//
//   - A panic inside a worker job or a library entry point never crashes
//     the process; it is recovered and converted into an *ExecError that
//     records the pipeline stage, the job index and the goroutine stack,
//     then propagates through the ordinary error paths (including the
//     smallest-index error contract of internal/parallel).
//   - When a deadline or search budget is exhausted mid-run, the caller
//     returns its best-so-far result tagged StatusPartial together with
//     the name of the exhausted budget, instead of an error.
package exec

import (
	"errors"
	"fmt"
	"runtime/debug"

	"repro/internal/chaos"
)

// ExecError is a recovered panic, structured for diagnosis: which
// pipeline stage panicked, which job index (fault, cell, policy, ...)
// was being processed, the panic value and the goroutine stack captured
// at the recovery point.
type ExecError struct {
	// Stage names the pipeline stage, e.g. "atpg.podem" or
	// "parallel.job".
	Stage string
	// Index is the job index within the stage, -1 when the stage is not
	// indexed.
	Index int
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured where the panic was
	// recovered.
	Stack []byte
}

// Error renders the headline without the stack; use Stack for the full
// trace.
func (e *ExecError) Error() string {
	if e.Index >= 0 {
		return fmt.Sprintf("exec: panic in %s (job %d): %v", e.Stage, e.Index, e.Value)
	}
	return fmt.Sprintf("exec: panic in %s: %v", e.Stage, e.Value)
}

// AsExecError unwraps err to an *ExecError if one is in its chain.
func AsExecError(err error) (*ExecError, bool) {
	var e *ExecError
	if errors.As(err, &e) {
		return e, true
	}
	return nil, false
}

// Guard runs fn and converts a panic into an *ExecError carrying the
// given stage and job index. It is the single recovery point of the
// execution layer: worker pools and library entry points route their
// bodies through it (or through Guard1). The chaos site fires inside the
// recovery scope, so an injected guard-boundary panic exercises exactly
// the conversion path a real one would.
func Guard(stage string, index int, fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = Recovered(stage, index, r)
		}
	}()
	if err := chaos.Step(chaos.SiteExecGuard); err != nil {
		return err
	}
	return fn()
}

// Guard1 is Guard for functions that also return a value. On panic the
// returned value is the zero value.
func Guard1[T any](stage string, index int, fn func() (T, error)) (out T, err error) {
	defer func() {
		if r := recover(); r != nil {
			var zero T
			out = zero
			err = Recovered(stage, index, r)
		}
	}()
	if err := chaos.Step(chaos.SiteExecGuard); err != nil {
		var zero T
		return zero, err
	}
	return fn()
}

// Recovered converts a recovered panic value into the *ExecError Guard
// would have produced; it is the escape hatch for code that must place its
// own recover (worker-goroutine last-resort recovery in internal/parallel,
// where the panic site is outside any Guard scope).
func Recovered(stage string, index int, r any) *ExecError {
	return &ExecError{Stage: stage, Index: index, Value: r, Stack: debug.Stack()}
}

// Status classifies a pipeline result: complete, or degraded because a
// budget (deadline, backtrack limit, frame window) was exhausted before
// the run could finish.
type Status int

const (
	// StatusComplete: the run finished everything it set out to do.
	StatusComplete Status = iota
	// StatusPartial: a budget was exhausted mid-run and the result is the
	// best state reached by then. Partial results are valid — counters are
	// consistent and every reported figure was genuinely computed — they
	// just cover less ground than a complete run.
	StatusPartial
)

// String renders the status.
func (s Status) String() string {
	switch s {
	case StatusComplete:
		return "complete"
	case StatusPartial:
		return "partial"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Budget names for the Exhausted field of partial results.
const (
	// BudgetDeadline: the context deadline expired or the context was
	// cancelled.
	BudgetDeadline = "deadline"
	// BudgetBacktracks: a PODEM backtrack limit ran out.
	BudgetBacktracks = "backtracks"
	// BudgetFrames: the time-frame window budget ran out.
	BudgetFrames = "frames"
	// BudgetPanic: a stage panicked and was isolated; see the recorded
	// ExecErrors.
	BudgetPanic = "panic"
)
