package exec

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

func TestGuardRecoversPanic(t *testing.T) {
	err := Guard("stage.x", 7, func() error { panic("boom") })
	if err == nil {
		t.Fatal("panic not converted to error")
	}
	ee, ok := AsExecError(err)
	if !ok {
		t.Fatalf("error %T is not an *ExecError", err)
	}
	if ee.Stage != "stage.x" || ee.Index != 7 || ee.Value != "boom" {
		t.Errorf("wrong capture: %+v", ee)
	}
	if len(ee.Stack) == 0 {
		t.Error("no stack captured")
	}
	if !strings.Contains(ee.Error(), "stage.x") || !strings.Contains(ee.Error(), "job 7") {
		t.Errorf("rendering: %q", ee.Error())
	}
}

func TestGuardPassesThroughErrors(t *testing.T) {
	want := errors.New("plain")
	if err := Guard("s", -1, func() error { return want }); err != want {
		t.Errorf("got %v, want %v", err, want)
	}
	if err := Guard("s", -1, func() error { return nil }); err != nil {
		t.Errorf("got %v, want nil", err)
	}
}

func TestGuard1ZeroesValueOnPanic(t *testing.T) {
	v, err := Guard1("s", 3, func() (int, error) {
		var xs []int
		return xs[5], nil // index out of range
	})
	if v != 0 {
		t.Errorf("value %d not zeroed", v)
	}
	ee, ok := AsExecError(err)
	if !ok || ee.Index != 3 {
		t.Fatalf("bad error: %v", err)
	}
	// Wrapping preserves AsExecError.
	wrapped := fmt.Errorf("outer: %w", err)
	if _, ok := AsExecError(wrapped); !ok {
		t.Error("AsExecError lost through wrapping")
	}
}

func TestStatusString(t *testing.T) {
	if StatusComplete.String() != "complete" || StatusPartial.String() != "partial" {
		t.Error("status rendering wrong")
	}
}
