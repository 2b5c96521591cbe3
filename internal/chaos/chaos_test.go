package chaos

import (
	"errors"
	"sort"
	"testing"
	"time"
)

// The per-site decision sequence must be a pure function of (seed, site,
// hit index): two injectors with the same seed fire on exactly the same
// hit indices, and a different seed gives a different schedule.
func TestDecisionDeterminism(t *testing.T) {
	fired := func(seed int64) []int {
		in := New(seed).On(SiteParallelJob, Rule{Action: ActError, Prob: 0.3})
		restore := Install(in)
		defer restore()
		var hits []int
		for i := 0; i < 200; i++ {
			if Step(SiteParallelJob) != nil {
				hits = append(hits, i)
			}
		}
		return hits
	}
	a, b := fired(7), fired(7)
	if len(a) == 0 || len(a) == 200 {
		t.Fatalf("prob 0.3 fired %d/200 times; want a nontrivial schedule", len(a))
	}
	if !equalInts(a, b) {
		t.Fatalf("same seed, different schedules: %v vs %v", a, b)
	}
	if c := fired(8); equalInts(a, c) {
		t.Fatalf("seeds 7 and 8 produced identical 200-hit schedules")
	}
	// Roughly the configured rate (binomial, 200 draws, p=0.3: ±5σ ≈ ±32).
	if len(a) < 28 || len(a) > 92 {
		t.Errorf("prob 0.3 fired %d/200 times; schedule badly biased", len(a))
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestStepActions(t *testing.T) {
	if err := Step(SiteParallelJob); err != nil {
		t.Fatalf("dormant Step returned %v", err)
	}
	in := New(1).
		On(SiteParallelJob, Rule{Action: ActError}).
		On(SiteParallelProduce, Rule{Action: ActPanic}).
		On(SiteParallelStall, Rule{Action: ActStall, Stall: time.Millisecond})
	restore := Install(in)
	defer restore()

	err := Step(SiteParallelJob)
	var ce *Error
	if !errors.As(err, &ce) || ce.Site != SiteParallelJob || ce.Seq != 1 {
		t.Fatalf("ActError: got %v", err)
	}

	func() {
		defer func() {
			r := recover()
			p, ok := r.(*Panic)
			if !ok {
				t.Fatalf("ActPanic: recovered %v", r)
			}
			if p.Site != SiteParallelProduce {
				t.Fatalf("panic value %v", p)
			}
		}()
		Step(SiteParallelProduce)
		t.Fatal("ActPanic did not panic")
	}()

	start := time.Now()
	if err := Step(SiteParallelStall); err != nil {
		t.Fatalf("ActStall returned %v", err)
	}
	if d := time.Since(start); d < time.Millisecond {
		t.Fatalf("ActStall slept %v; want >= 1ms", d)
	}

	if got := in.Fired(SiteParallelJob); got != 1 {
		t.Fatalf("Fired(job) = %d", got)
	}
	if got := in.FiredTotal(); got != 3 {
		t.Fatalf("FiredTotal = %d", got)
	}
	if got := in.Hits(SiteExecGuard); got != 0 {
		t.Fatalf("Hits(unconfigured) = %d", got)
	}
}

func TestFire(t *testing.T) {
	if err, fired := Fire(SiteStoreTorn); fired || err != nil {
		t.Fatalf("dormant Fire = %v, %v", err, fired)
	}
	restore := Install(New(1).On(SiteStoreTorn, Rule{Action: ActTorn}))
	defer restore()
	err, fired := Fire(SiteStoreTorn)
	var ce *Error
	if !fired || !errors.As(err, &ce) {
		t.Fatalf("Fire = %v, %v", err, fired)
	}
}

func TestInstallGuards(t *testing.T) {
	in := New(1)
	restore := Install(in)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double Install did not panic")
			}
		}()
		Install(New(2))
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("On after Install did not panic")
			}
		}()
		in.On(SiteParallelJob, Rule{Action: ActError})
	}()
	restore()
	if Active() != nil {
		t.Fatal("restore did not deactivate")
	}
	restore2 := Install(New(3))
	restore2()
}

func TestUnknownSitePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("On(unknown site) did not panic")
		}
	}()
	New(1).On("no.such.site", Rule{Action: ActError})
}

func TestSitesSortedAndComplete(t *testing.T) {
	s := Sites()
	if !sort.StringsAreSorted(s) {
		t.Fatalf("Sites() not sorted: %v", s)
	}
	if len(s) != 20 {
		t.Fatalf("Sites() has %d entries: %v", len(s), s)
	}
	seen := map[string]bool{}
	for _, site := range s {
		if seen[site] {
			t.Fatalf("duplicate site %s", site)
		}
		seen[site] = true
	}
}
