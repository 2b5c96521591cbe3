// Command bench is the repository benchmark. It builds hltsd and hltsc
// from source, drives four workloads through them from one process with
// at most nproc requests and connections in flight, checks every answer,
// and prints one "workload metric value unit" line per end-to-end metric
// (or, traced, per per-layer metric). See README.md.
//
//	go run . -seed 1 -out DIR                # every workload
//	go run . -seed 1 -trace 1 -out DIR       # every workload, traced
//	go run . -workload serve-hot -seed 3     # one workload
//	go run . -compare A.json,B.json          # judge B against A
//
// With -workload, the last line of standard output is the run's JSON
// summary: {"correct", "attempted", "failed", "metrics"}. The command
// exits non-zero when any answer fails the correctness gate.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		only    = fs.String("workload", "", "run only this workload (default: every workload)")
		seed    = fs.Uint64("seed", 1, "workload seed: the same seed sends the same request bytes")
		seconds = fs.Float64("seconds", 20, "length of each measured window")
		trace   = fs.Int("trace", 0, "1 runs traced and reports the per-layer metrics")
		out     = fs.String("out", "", "write results.json (and, traced, trace.json) into this directory")
		build   = fs.String("build", "", "build hltsd and hltsc into this directory (default: a temporary one)")
		compare = fs.String("compare", "", "compare result files A.json[+A2.json...],B.json[+...]; the first side is the baseline")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, err := findRoot()
	if err != nil {
		return fail(err)
	}
	if *compare != "" {
		return compareMain(stdout, root, *compare)
	}
	if *trace != 0 && *trace != 1 {
		return fail(fmt.Errorf("-trace must be 0 or 1"))
	}
	run := workloads
	if *only != "" {
		w, err := workloadByName(*only)
		if err != nil {
			return fail(err)
		}
		run = []*workload{w}
	}

	work, err := os.MkdirTemp("", "hlts-bench-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(work)
	e := &env{root: root, bins: *build, work: work, nproc: runtime.NumCPU()}
	if e.bins == "" {
		e.bins = filepath.Join(work, "bin")
	}
	if err := buildDaemons(root, e.bins); err != nil {
		return fail(err)
	}

	var results []*result
	var traces []*traceOut
	correct := true
	for _, w := range run {
		res, tr, err := runWorkload(e, w, *seed, *seconds, *trace == 1)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", w.name, err))
		}
		report(stdout, res, tr)
		results, correct = append(results, res), correct && res.Correct
		if tr != nil {
			traces = append(traces, tr)
		}
	}
	if *out != "" {
		if err := writeJSON(filepath.Join(*out, "results.json"), map[string]any{"runs": results}); err != nil {
			return fail(err)
		}
		if len(traces) > 0 {
			if err := writeJSON(filepath.Join(*out, "trace.json"), map[string]any{"traces": traces}); err != nil {
				return fail(err)
			}
		}
	}
	if len(results) == 1 {
		r := results[0]
		b, err := json.Marshal(struct {
			Correct   bool              `json:"correct"`
			Attempted int               `json:"attempted"`
			Failed    int               `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}{r.Correct, r.Attempted, r.Failed, r.Metrics})
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%s\n", b)
	}
	if !correct {
		return 1
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 1
}

// findRoot walks up from the working directory to the repository root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "hltsd", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the repository: no cmd/hltsd above the working directory")
		}
		dir = parent
	}
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// report prints a run's metrics, one "workload metric value unit" line
// each, and, traced, its layer-share table.
func report(w io.Writer, res *result, tr *traceOut) {
	defs := endToEnd
	if res.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		m := res.Metrics[d.name]
		fmt.Fprintf(w, "%s %s %.6g %s\n", res.Workload, d.name, m.Value, m.Unit)
	}
	var extra []string
	for name := range res.Extra {
		extra = append(extra, name)
	}
	sort.Strings(extra)
	for _, name := range extra {
		m := res.Extra[name]
		fmt.Fprintf(w, "%s %s %.6g %s\n", res.Workload, name, m.Value, m.Unit)
	}
	for _, v := range res.Violations {
		fmt.Fprintf(os.Stderr, "bench: %s: violation: %s\n", res.Workload, v)
	}
	if tr == nil {
		return
	}
	fmt.Fprintf(w, "%s layer shares of traced request time:\n", res.Workload)
	var eps []string
	layers := map[string]bool{}
	for ep, ls := range tr.Shares {
		eps = append(eps, ep)
		for l := range ls {
			layers[l] = true
		}
	}
	sort.Strings(eps)
	fmt.Fprintf(w, "  %-10s", "layer")
	for _, ep := range eps {
		fmt.Fprintf(w, " %12s", ep)
	}
	fmt.Fprintln(w)
	var ls []string
	for l := range layers {
		ls = append(ls, l)
	}
	sort.Strings(ls)
	for _, l := range ls {
		fmt.Fprintf(w, "  %-10s", l)
		for _, ep := range eps {
			fmt.Fprintf(w, " %11.1f%%", 100*tr.Shares[ep][l])
		}
		fmt.Fprintln(w)
	}
}
