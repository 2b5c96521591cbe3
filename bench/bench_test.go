package main

import (
	"bytes"
	"fmt"
	"math"
	"regexp"
	"strings"
	"testing"
	"time"
)

// requests returns the first n requests a plan sends, warm-up first.
func requests(t *testing.T, w *workload, seed uint64, n int) []request {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.plan(seed, 20, root)
	if err != nil {
		t.Fatal(err)
	}
	out := append([]request(nil), p.warm...)
	for i := 0; i < n && (p.next != nil || i < len(p.sched)); i++ {
		out = append(out, p.stream(i))
	}
	return out
}

func TestSameSeedSameRequestBytes(t *testing.T) {
	for _, w := range workloads {
		a, b := requests(t, w, 7, 600), requests(t, w, 7, 600)
		if len(a) != len(b) {
			t.Fatalf("%s: %d vs %d requests at one seed", w.name, len(a), len(b))
		}
		for i := range a {
			if a[i].At != b[i].At || a[i].Path != b[i].Path || !bytes.Equal(a[i].Body, b[i].Body) {
				t.Fatalf("%s: request %d differs at one seed", w.name, i)
			}
		}
		other := requests(t, w, 8, 600)
		same := 0
		for i := range a {
			if i < len(other) && bytes.Equal(a[i].Body, other[i].Body) {
				same++
			}
		}
		if same == len(a) {
			t.Errorf("%s: seeds 7 and 8 send the same requests", w.name)
		}
	}
}

func TestUniqueWorkloadsNeverRepeat(t *testing.T) {
	for _, w := range workloads {
		if !w.noHits {
			continue
		}
		seen := map[string]bool{}
		for _, r := range requests(t, w, 1, 600) {
			if seen[r.key()] {
				t.Fatalf("%s repeats a request", w.name)
			}
			seen[r.key()] = true
		}
	}
}

func TestPercentileRule(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{19, 0.5, 10, false},
		{20, 0.5, 10, true},
		{99, 0.9, 90, false},
		{100, 0.9, 90, true},
		{999, 0.99, 990, false},
		{1000, 0.99, 990, true},
	} {
		got, ok := percentile(ramp(c.n), c.q)
		if got != c.want || ok != c.ok {
			t.Errorf("p%g of %d samples = %g, %v; want %g, %v", 100*c.q, c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestHarrellDavis(t *testing.T) {
	// Three samples at q=0.5: a=b=2, I_x(2,2) = 3x^2 - 2x^3, so the
	// weights are 7/27, 13/27, 7/27.
	if got := hdQuantile([]float64{27, 0, 0}, 0.5); math.Abs(got-7) > 1e-9 {
		t.Errorf("HD median of {0,0,27} = %g, want 7", got)
	}
	for _, n := range []int{1, 2, 21, 4000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i)
		}
		if got, want := hdQuantile(xs, 0.5), float64(n+1)/2; math.Abs(got-want) > 1e-6*want {
			t.Errorf("HD median of 1..%d = %g, want %g", n, got, want)
		}
		if n < 1000 {
			continue
		}
		if got, want := hdQuantile(xs, 0.9), 0.9*float64(n); math.Abs(got-want) > 1 {
			t.Errorf("HD p90 of 1..%d = %g, want about %g", n, got, want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Reference values from statistics.quantiles(xs, n=4) and
	// statistics.median(xs).
	for _, c := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{5, 1, 4}, 1, 4, 5},
		{[]float64{3.5, 1.25, 9, 2, 7, 7.5, 0.5}, 1.25, 3.5, 7.5},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 || median(c.xs) != c.med {
			t.Errorf("%v: quartiles %g %g median %g; want %g %g %g", c.xs, q1, q3, median(c.xs), c.q1, c.q3, c.med)
		}
	}
}

func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 0, Parent: -1, start: 0, end: 10 * ms},
		{ID: 1, Parent: 0, start: 1 * ms, end: 3 * ms},
		{ID: 2, Parent: 0, start: 2 * ms, end: 5 * ms},    // overlaps its sibling
		{ID: 3, Parent: 0, start: 8 * ms, end: 12 * ms},   // runs past its parent
		{ID: 4, Parent: 2, start: 2 * ms, end: 4 * ms},    // grandchild
		{ID: 5, Parent: -1, start: 20 * ms, end: 21 * ms}, // another root
	}
	want := []time.Duration{4 * ms, 2 * ms, 1 * ms, 4 * ms, 2 * ms, 1 * ms}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d: self %v, want %v", i, got[i], want[i])
		}
	}
	for i := range spans {
		spans[i].self = got[i]
		spans[i].Name = []string{"request", "core.synth", "atpg.run", "atpg.bist", "logicsim.x", "request"}[i]
	}
	ls := layerSelf(spans, 0)
	if ls["core"] != 2*ms || ls["atpg"] != 5*ms || ls["logicsim"] != 2*ms || len(ls) != 3 {
		t.Errorf("layer self times %v", ls)
	}
}

func TestJudge(t *testing.T) {
	lower := rule{better: "lower", bound: 0.1}
	for _, c := range []struct {
		r          rule
		base, cand []float64
		want       string
	}{
		{lower, []float64{100, 101, 99, 100}, []float64{105, 104, 106, 105}, "ok"},
		{lower, []float64{100, 101, 99, 100}, []float64{115, 114, 116, 115}, "regressed"},
		{rule{better: "higher", bound: 0.1}, []float64{100, 101, 99, 100}, []float64{85, 86, 84, 85}, "regressed"},
		{lower, []float64{50, 100, 150, 200}, []float64{120, 130, 125, 128}, "unresolved"},
		{lower, []float64{150, 200, 250, 300}, []float64{50, 60, 55, 58}, "ok"},
		{rule{better: "lower", exact: true}, []float64{7, 7}, []float64{7}, "ok"},
		{rule{better: "lower", exact: true}, []float64{7, 7}, []float64{6}, "regressed"},
		{rule{better: "lower"}, []float64{1}, []float64{3}, "info"},
	} {
		if got, _ := judge(c.r, c.base, c.cand); got != c.want {
			t.Errorf("judge(%+v, %v, %v) = %s, want %s", c.r, c.base, c.cand, got, c.want)
		}
	}
}

// TestBenchmarkJSON lints BENCHMARK.json and keeps it equal to the
// workloads and metrics this package reports.
func TestBenchmarkJSON(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	bf, err := loadBenchmark(root)
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated name %q", n)
		}
		seen[n] = true
	}
	if len(bf.Workloads) < 2 || len(bf.Workloads) > 8 || len(bf.EndToEnd) < 1 || len(bf.EndToEnd) > 16 || len(bf.PerLayer) < 1 || len(bf.PerLayer) > 128 {
		t.Errorf("counts: %d workloads, %d end-to-end, %d per-layer", len(bf.Workloads), len(bf.EndToEnd), len(bf.PerLayer))
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d", bf.RunSeconds)
	}
	covers := false
	for _, p := range bf.Paths {
		covers = covers || p == "bench"
	}
	if !covers {
		t.Errorf("paths %v do not cover bench", bf.Paths)
	}
	for _, arg := range bf.Command {
		if strings.HasPrefix(arg, "/") || strings.Contains(arg, "..") || strings.Contains(arg, "/") && !strings.HasPrefix(arg, "bench/") {
			t.Errorf("command argument %q leaves the benchmark's paths", arg)
		}
	}

	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		name(w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s in the benchmark", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}

	check := func(kind string, got []metricDef, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d reported", kind, len(got), len(want))
		}
		for i := range want {
			name(got[i].name)
			if !unitRE.MatchString(got[i].unit) || got[i].better != "lower" && got[i].better != "higher" {
				t.Errorf("%s: bad unit or direction in %+v", kind, got[i])
			}
			if got[i].name != want[i].name || got[i].unit != want[i].unit || got[i].better != want[i].better || got[i].bound != want[i].bound {
				t.Errorf("%s %d: %+v in BENCHMARK.json, %+v reported", kind, i, got[i], want[i])
			}
		}
	}
	var e2e, layer []metricDef
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metricDef{name: m.Name, unit: m.Unit, better: m.Better, bound: m.Bound})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range bf.PerLayer {
		layer = append(layer, metricDef{name: m.Name, unit: m.Unit, better: m.Better})
	}
	check("end_to_end", e2e, endToEnd)
	stripped := make([]metricDef, len(perLayer))
	for i, m := range perLayer {
		stripped[i] = metricDef{name: m.name, unit: m.unit, better: m.better}
	}
	check("per_layer", layer, stripped)
	if len(e2e) == 0 || e2e[0].name != "setup_s" || e2e[0].unit != "s" || e2e[0].better != "lower" {
		t.Errorf("setup_s must be the first end-to-end metric, in s, lower better")
	}
	for _, m := range e2e[1:] {
		if m.bound > e2e[0].bound {
			t.Errorf("%s has a larger bound than setup_s", m.name)
		}
	}

	targets := map[string]bool{}
	for _, m := range endToEnd {
		for _, w := range workloads {
			targets[fmt.Sprintf("%s@%s", m.name, w.name)] = true
		}
	}
	for _, m := range perLayer {
		for _, mv := range m.moves {
			if !targets[mv] {
				t.Errorf("%s moves %q, which names no end-to-end metric and workload", m.name, mv)
			}
		}
	}
}
