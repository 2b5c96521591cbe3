package core

import (
	"context"
	"errors"
	"slices"
	"testing"

	"repro/internal/dfg"
	"repro/internal/stats"
)

func ord(ids ...dfg.NodeID) []dfg.NodeID { return ids }

// TestSelectMergeOrderSRWinsDespiteCostlierDelta is the regression test
// for the order-preference bug: the SR merge-sort order, when feasible,
// must win outright even when a later fallback order has a strictly
// smaller ΔE. The old implementation let every feasible order compete
// on (ΔE, ΔH) — its SR preference hinged on a vacuously-true nil check
// — so the testability-guided order lost to any cheaper reschedule.
func TestSelectMergeOrderSRWinsDespiteCostlierDelta(t *testing.T) {
	srState, fallbackState := &state{}, &state{}
	candidates := [][]dfg.NodeID{ord(1, 2), ord(2, 1)}
	ns, dE, dH, err := selectMergeOrder(candidates, func(order []dfg.NodeID) (*state, int, float64, error) {
		if slices.Equal(order, candidates[0]) {
			return srState, 3, 7, nil // SR order: feasible but costlier
		}
		return fallbackState, 0, 0, nil // strictly smaller ΔE and ΔH
	})
	if err != nil {
		t.Fatal(err)
	}
	if ns != srState || dE != 3 || dH != 7 {
		t.Errorf("selected ΔE=%d ΔH=%g, want the SR order (ΔE=3, ΔH=7) regardless of cheaper fallbacks", dE, dH)
	}
}

func TestSelectMergeOrderFallbackMinimizesDelta(t *testing.T) {
	// When the SR order is infeasible the fallbacks compete on ΔE with
	// ΔH as the tie-breaker (paper §4.3.1: smallest critical-path
	// increase).
	states := map[dfg.NodeID]*state{2: {}, 3: {}, 4: {}}
	candidates := [][]dfg.NodeID{ord(1, 2), ord(2, 1), ord(3, 1), ord(4, 1)}
	ns, dE, dH, err := selectMergeOrder(candidates, func(order []dfg.NodeID) (*state, int, float64, error) {
		switch order[0] {
		case 1:
			return nil, 0, 0, errors.New("SR order infeasible")
		case 2:
			return states[2], 2, 0, nil
		case 3:
			return states[3], 1, 5, nil
		default:
			return states[4], 1, 2, nil // same ΔE as order 3, smaller ΔH
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if ns != states[4] || dE != 1 || dH != 2 {
		t.Errorf("selected ΔE=%d ΔH=%g, want the (1, 2) fallback", dE, dH)
	}
}

// TestSelectMergeOrderSkipsDuplicates is the regression test for the
// duplicate-order bug: the old fmt.Sprint-keyed dedup let textually
// distinct but identical orders through, rescheduling the same problem
// twice. Each distinct order must be applied exactly once.
func TestSelectMergeOrderSkipsDuplicates(t *testing.T) {
	applied := 0
	// The SR order fails, so the loop walks the fallbacks — among which
	// two orders repeat earlier ones and must not be rescheduled again.
	candidates := [][]dfg.NodeID{ord(1, 2), ord(2, 1), ord(2, 1), ord(3, 1), ord(1, 2)}
	_, _, _, err := selectMergeOrder(candidates, func(order []dfg.NodeID) (*state, int, float64, error) {
		applied++
		if slices.Equal(order, candidates[0]) {
			return nil, 0, 0, errors.New("SR order infeasible")
		}
		return &state{}, applied, 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if applied != 3 {
		t.Errorf("apply ran %d times for 3 distinct orders", applied)
	}
}

func TestSelectMergeOrderAllInfeasible(t *testing.T) {
	first := errors.New("first failure")
	calls := 0
	_, _, _, err := selectMergeOrder([][]dfg.NodeID{ord(1, 2), ord(2, 1)},
		func(order []dfg.NodeID) (*state, int, float64, error) {
			calls++
			if calls == 1 {
				return nil, 0, 0, first
			}
			return nil, 0, 0, errors.New("second failure")
		})
	if !errors.Is(err, first) {
		t.Errorf("err = %v, want the first failure", err)
	}
}

// TestAnalyzeMemoized pins the metrics cache: re-analyzing the same
// state returns the identical Metrics object and counts as a hit.
func TestAnalyzeMemoized(t *testing.T) {
	par := DefaultParams(4)
	sc := stats.New()
	par.Stats = sc
	st, err := initialState(dfg.Ex(4), par, newEvalCache(par))
	if err != nil {
		t.Fatal(err)
	}
	a1, err := st.analyze()
	if err != nil {
		t.Fatal(err)
	}
	a2, err := st.analyze()
	if err != nil {
		t.Fatal(err)
	}
	if a1.m != a2.m {
		t.Error("repeated analysis of one state returned distinct Metrics")
	}
	if h, m := sc.Value("cache.metrics.hit"), sc.Value("cache.metrics.miss"); h != 1 || m != 1 {
		t.Errorf("metrics counters hit=%d miss=%d, want 1/1", h, m)
	}
}

// TestMeanRegSeqDepthSharedAcrossIdenticalOrders is the regression test
// for the duplicate-fixpoint bug: applyRegMerge compares its two
// serialization orders by mean register sequential depth, and when both
// orders converge to the same (schedule, allocation) the second
// testability fixpoint used to be recomputed from scratch. Two states
// with identical designs must share one analysis through the cache, and
// the second, a build hit whose analysis is a hit too, derives no design.
func TestMeanRegSeqDepthSharedAcrossIdenticalOrders(t *testing.T) {
	par := DefaultParams(4)
	sc := stats.New()
	par.Stats = sc
	base, err := initialState(dfg.Ex(4), par, newEvalCache(par))
	if err != nil {
		t.Fatal(err)
	}
	s1, s2 := base.clone(), base.clone()
	if err := s1.build(); err != nil {
		t.Fatal(err)
	}
	if err := s2.build(); err != nil {
		t.Fatal(err)
	}
	a1, err := s1.analyze()
	if err != nil {
		t.Fatal(err)
	}
	hits, designs := sc.Value("cache.metrics.hit"), sc.Value("core.designs")
	a2, err := s2.analyze()
	if err != nil {
		t.Fatal(err)
	}
	if d1, d2 := a1.regDepth, a2.regDepth; d1 != d2 {
		t.Errorf("identical designs measured different depths: %g vs %g", d1, d2)
	}
	if got := sc.Value("cache.metrics.hit"); got != hits+1 {
		t.Errorf("second identical analysis was not a cache hit (hits %d -> %d)", hits, got)
	}
	if miss := sc.Value("cache.metrics.miss"); miss != 1 {
		t.Errorf("%d fixpoint runs for identical designs, want exactly 1", miss)
	}
	if got := sc.Value("core.designs"); got != designs {
		t.Errorf("a build and metrics hit derived a design (core.designs %d -> %d)", designs, got)
	}
}

// TestSynthesisAvoidsDuplicateTestabilityAnalysis asserts the effect
// end to end: a full synthesis run revisits enough identical designs
// across candidate orders and tie policies that the metrics cache must
// register hits.
func TestSynthesisAvoidsDuplicateTestabilityAnalysis(t *testing.T) {
	par := DefaultParams(8)
	sc := stats.New()
	par.Stats = sc
	if _, err := SynthesizeCtx(context.Background(), dfg.Ex(8), par); err != nil {
		t.Fatal(err)
	}
	if sc.Value("cache.metrics.hit") == 0 {
		t.Error("no metrics cache hits in a full synthesis run")
	}
}
