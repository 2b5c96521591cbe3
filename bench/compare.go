// compare.go judges result files against a baseline with the bounds
// BENCHMARK.json fixes. A side is one or more results.json files (joined
// with '+'); with several runs a side reports the median and quartiles.
// An end-to-end metric is ok when the candidate's median is no worse
// than the baseline's by more than the bound, regressed when it is, and
// unresolved when either side's run-to-run spread is wider than the bound
// (unless every candidate run beats every baseline run). Per-layer counts
// (units count and %) are deterministic and must match exactly; other
// per-layer metrics are shown for information.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchmarkFile is BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmark(root string) (*benchmarkFile, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	bf := &benchmarkFile{}
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return bf, nil
}

// side holds every value one side reported: workload -> metric -> runs.
type side map[string]map[string][]float64

func loadSide(spec string) (side, error) {
	s := side{}
	for _, path := range strings.Split(spec, "+") {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var f struct{ Runs []*result }
		if err := json.Unmarshal(b, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for _, r := range f.Runs {
			if s[r.Workload] == nil {
				s[r.Workload] = map[string][]float64{}
			}
			for name, m := range r.Metrics {
				s[r.Workload][name] = append(s[r.Workload][name], m.Value)
			}
		}
	}
	return s, nil
}

// rule is how one metric is judged.
type rule struct {
	better string
	bound  float64
	exact  bool // a deterministic count: must match exactly
}

func compareMain(w io.Writer, root, spec string) int {
	bf, err := loadBenchmark(root)
	if err != nil {
		return fail(err)
	}
	parts := strings.Split(spec, ",")
	if len(parts) < 2 {
		return fail(fmt.Errorf("-compare needs a baseline and at least one candidate"))
	}
	rules := map[string]rule{}
	for _, m := range bf.EndToEnd {
		rules[m.Name] = rule{better: m.Better, bound: m.Bound}
	}
	for _, m := range bf.PerLayer {
		rules[m.Name] = rule{better: m.Better, exact: m.Unit == unitCount || m.Unit == unitPct}
	}
	base, err := loadSide(parts[0])
	if err != nil {
		return fail(err)
	}
	regressed := false
	for _, p := range parts[1:] {
		cand, err := loadSide(p)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(w, "%s against %s\n", p, parts[0])
		for _, wl := range bf.Workloads {
			b, c := base[wl.Name], cand[wl.Name]
			if b == nil || c == nil {
				continue
			}
			var names []string
			for name := range b {
				if _, ok := c[name]; ok && rules[name].better != "" {
					names = append(names, name)
				}
			}
			sort.Strings(names)
			row := []string{wl.Name}
			var detail []string
			for _, name := range names {
				v, d := judge(rules[name], b[name], c[name])
				regressed = regressed || v == "regressed"
				if rules[name].bound > 0 {
					row = append(row, fmt.Sprintf("%s=%s(%+.1f%%)", name, v, 100*d))
				}
				detail = append(detail, fmt.Sprintf("  %-36s %s  ->  %s  %+7.2f%%  %s",
					name, summary(b[name]), summary(c[name]), 100*d, v))
			}
			fmt.Fprintln(w, strings.Join(row, "  "))
			for _, line := range detail {
				fmt.Fprintln(w, line)
			}
		}
	}
	if regressed {
		return 1
	}
	return 0
}

// judge returns the verdict on one metric and the candidate median's
// relative change, signed so that positive is worse.
func judge(r rule, base, cand []float64) (string, float64) {
	mb, mc := median(base), median(cand)
	worse := 0.0
	switch {
	case mb != 0:
		worse = (mc - mb) / math.Abs(mb)
	case mc != 0:
		worse = math.Copysign(1, mc)
	}
	if r.better == "higher" && worse != 0 {
		worse = -worse
	}
	switch {
	case r.exact:
		for _, v := range append(append([]float64(nil), base...), cand...) {
			if v != base[0] {
				return "regressed", worse
			}
		}
		return "ok", worse
	case r.bound == 0:
		return "info", worse
	case spread(base) > r.bound || spread(cand) > r.bound:
		if allBetter(r.better, base, cand) {
			return "ok", worse
		}
		return "unresolved", worse
	case worse > r.bound:
		return "regressed", worse
	}
	return "ok", worse
}

// allBetter reports whether every candidate run beats every baseline run.
func allBetter(better string, base, cand []float64) bool {
	for _, b := range base {
		for _, c := range cand {
			if better == "lower" && c >= b || better == "higher" && c <= b {
				return false
			}
		}
	}
	return true
}

func summary(xs []float64) string {
	if len(xs) == 1 {
		return fmt.Sprintf("%.6g", xs[0])
	}
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.6g [%.6g %.6g] n=%d", median(xs), q1, q3, len(xs))
}
