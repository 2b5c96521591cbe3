package hlts

import (
	"context"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/stats"
)

// countersGolden pins, one `name value` line each, an allowlist of the
// deterministic work counters of three in-process workloads, all at one
// worker:
//
//	genmix/<counter>          the GenMix synthesis set (genMixJobs):
//	                          candidate evaluations, merge orders rejected
//	                          before cloning, designs derived and the build
//	                          and metrics cache hits and misses
//	podem/<bench>/<field>     the ATPG campaign of podemCase on Ex, Dct,
//	                          Diffeq and EWF at 4 bits with 300 faults
//	bist/lanes=<n>/<field>    the 200-fault, 100-cycle BIST session of
//	                          bistNetlist at 1 and 64 lanes
//
// A change that moves a merger decision, a cache key, a PODEM decision or
// the BIST evaluator's work shows up here as the counter that moved.
const countersGolden = "testdata/counters.golden"

// genMixCounters is the allowlist of GenMix stats counters.
var genMixCounters = []string{
	"core.evaluations", "core.rejected", "core.designs",
	"cache.build.hit", "cache.build.miss",
	"cache.metrics.hit", "cache.metrics.miss",
}

// TestCountersGolden recomputes the counters and compares them line by
// line with the golden; each differing line names its counter. The whole
// set takes a few seconds, so -short runs it too. After an intended change
// to the work, rewrite the file with
//
//	go test -run '^TestCountersGolden$' -update .
func TestCountersGolden(t *testing.T) {
	var got strings.Builder
	add := func(name string, v int64) { fmt.Fprintf(&got, "%s %d\n", name, v) }

	st := stats.New()
	runGenMix(t, genMixJobs(t), st)
	for _, name := range genMixCounters {
		add("genmix/"+name, st.Value(name))
	}
	for _, bench := range podemBenches {
		nl, cfg := podemCase(t, bench)
		res, err := TestDesignCtx(context.Background(), nl, cfg)
		if err != nil {
			t.Fatal(err)
		}
		p := "podem/" + bench + "/"
		add(p+"Effort", res.Effort)
		add(p+"GateEvals", res.GateEvals)
		add(p+"DetDetected", int64(res.DetDetected))
		add(p+"Detected", int64(res.Detected()))
	}
	nl := bistNetlist(t)
	for _, lanes := range bistLanes {
		out := runBIST(t, nl, lanes)
		p := fmt.Sprintf("bist/lanes=%d/", lanes)
		add(p+"Passes", out.Passes)
		add(p+"Detected", int64(out.Detected))
		add(p+"GateEvals", out.GateEvals)
	}

	if *updateGolden {
		if err := os.WriteFile(countersGolden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(countersGolden)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(raw), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("%s has %d lines, the test computes %d", countersGolden, len(wl), len(gl))
	}
	for i := range gl {
		if gl[i] != wl[i] {
			t.Errorf("%s line %d moved: got %q, golden %q", countersGolden, i+1, gl[i], wl[i])
		}
	}
	if t.Failed() {
		t.Log("rerun with -update only if the change is intended")
	}
}
