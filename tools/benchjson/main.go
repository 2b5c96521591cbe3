// Command benchjson converts `go test -bench` text output into a JSON
// document, one record per benchmark result with every reported metric
// (ns/op, custom b.ReportMetric units) keyed by unit. CI uses it to
// publish BENCH_synth.json from the BenchmarkSynthesize run so the
// cache-on/cache-off timing ratio is machine-readable across commits.
// End-to-end service measurements come from the repo benchmark instead
// (bench/README.md).
//
// Usage:
//
//	go test -bench '^BenchmarkSynthesize$' . | go run ./tools/benchjson -out BENCH_synth.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Result is one benchmark line.
type Result struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// parseBench extracts the benchmark result lines from go-test output.
// A result line reads "BenchmarkX/sub-4  10  123 ns/op  59.2 hit%":
// name, iteration count, then (value, unit) pairs. Non-benchmark lines
// (headers, PASS, ok) are ignored.
func parseBench(r io.Reader) ([]Result, error) {
	var results []Result
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue // e.g. "Benchmark... FAIL" or a stray prefix match
		}
		res := Result{Name: fields[0], Iterations: iters, Metrics: map[string]float64{}}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchjson: bad value %q on line %q", fields[i], sc.Text())
			}
			res.Metrics[fields[i+1]] = v
		}
		results = append(results, res)
	}
	return results, sc.Err()
}

func main() {
	in := flag.String("in", "", "benchmark output file (default: stdin)")
	out := flag.String("out", "", "JSON output file (default: stdout)")
	flag.Parse()

	var src io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		src = f
	}
	results, err := parseBench(src)
	if err != nil {
		fatal(err)
	}
	if len(results) == 0 {
		fatal(fmt.Errorf("no benchmark result lines in input"))
	}
	data, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
