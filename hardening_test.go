package hlts

import (
	"context"
	"errors"
	"testing"
)

// The facade entry points must reject nonsensical inputs with the typed
// sentinels, not fail deep inside synthesis (or worse, compute something
// at a width the gate level cannot represent).

func TestLoadBenchmarkRejectsBadWidth(t *testing.T) {
	for _, w := range []int{0, -4, 65, 1 << 20} {
		if _, err := LoadBenchmark(BenchEx, w); !errors.Is(err, ErrBadWidth) {
			t.Errorf("LoadBenchmark(ex, %d) = %v, want ErrBadWidth", w, err)
		}
	}
	for _, w := range []int{1, 4, 64} {
		if _, err := LoadBenchmark(BenchEx, w); err != nil {
			t.Errorf("LoadBenchmark(ex, %d) = %v, want ok", w, err)
		}
	}
}

func TestLoadBenchmarkRejectsUnknownName(t *testing.T) {
	if _, err := LoadBenchmark("no-such-bench", 8); !errors.Is(err, ErrUnknownBenchmark) {
		t.Errorf("LoadBenchmark(no-such-bench) = %v, want ErrUnknownBenchmark", err)
	}
	// A bad width on an unknown benchmark still reports the width first:
	// both are wrong, either sentinel would be justified, but the check
	// order is pinned so callers see stable behaviour.
	if _, err := LoadBenchmark("no-such-bench", 0); !errors.Is(err, ErrBadWidth) {
		t.Errorf("LoadBenchmark(no-such-bench, 0) = %v, want ErrBadWidth", err)
	}
}

func TestCompileVHDLRejectsBadWidth(t *testing.T) {
	src := "entity e is port(a: in bit; z: out bit); end; architecture a of e is begin z <= a; end;"
	for _, w := range []int{0, -1, 65} {
		if _, err := CompileVHDL(src, w); !errors.Is(err, ErrBadWidth) {
			t.Errorf("CompileVHDL(width %d) = %v, want ErrBadWidth", w, err)
		}
	}
}

// RunBISTCfgCtx must degrade to a partial outcome on cancellation — the
// contract every other cancellable job type already honours — so the
// server can cancel BIST jobs when their requester disconnects.
func TestRunBISTCtxCancellation(t *testing.T) {
	g, err := LoadBenchmark(BenchEx, 4)
	if err != nil {
		t.Fatal(err)
	}
	r, err := SynthesizeCtx(context.Background(), g, DefaultParams(4))
	if err != nil {
		t.Fatal(err)
	}
	tpg, misr := SelectBISTRegisters(r, 2, 2)
	if len(tpg)+len(misr) == 0 {
		t.Skip("no BIST candidates on this design")
	}
	n, err := GenerateNetlistWithBIST(r, 4, tpg, misr)
	if err != nil {
		t.Fatal(err)
	}

	full, err := RunBISTCfgCtx(context.Background(), n, 100, 40, BISTConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if full.Status != StatusComplete || full.Evaluated != full.TotalFaults || full.Exhausted != "" {
		t.Errorf("complete session misreported: %+v", full)
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	part, err := RunBISTCfgCtx(cancelled, n, 100, 40, BISTConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if part.Status != StatusPartial || part.Exhausted != "deadline" {
		t.Errorf("cancelled session not partial: %+v", part)
	}
	if part.Evaluated != 0 || part.Detected != 0 {
		t.Errorf("pre-cancelled session evaluated %d faults, detected %d; want 0", part.Evaluated, part.Detected)
	}
	if part.TotalFaults != full.TotalFaults {
		t.Errorf("fault universe changed under cancellation: %d vs %d", part.TotalFaults, full.TotalFaults)
	}
}

func TestSynthesisRejectsBadParamsWidth(t *testing.T) {
	g, err := LoadBenchmark(BenchEx, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{0, -8, 65} {
		if _, err := SynthesizeCtx(context.Background(), g, DefaultParams(w)); !errors.Is(err, ErrBadWidth) {
			t.Errorf("SynthesizeCtx(context.Background(), DefaultParams(%d)) = %v, want ErrBadWidth", w, err)
		}
		for _, m := range Methods() {
			if _, err := RunMethodCtx(context.Background(), m, g, DefaultParams(w)); !errors.Is(err, ErrBadWidth) {
				t.Errorf("RunMethodCtx(context.Background(), %s, DefaultParams(%d)) = %v, want ErrBadWidth", m, w, err)
			}
		}
	}
}
