package main

import (
	"strings"
	"testing"
)

func TestParseBench(t *testing.T) {
	input := `goos: linux
goarch: amd64
pkg: repro
BenchmarkSynthesize/ex/w4/cache=on-4         	     100	    123456 ns/op	        59.20 build-hit%
BenchmarkSynthesize/ex/w4/cache=off-4        	      50	    234567 ns/op
PASS
ok  	repro	1.234s
`
	results, err := parseBench(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("%d results, want 2", len(results))
	}
	on := results[0]
	if on.Name != "BenchmarkSynthesize/ex/w4/cache=on-4" || on.Iterations != 100 {
		t.Errorf("first result: %+v", on)
	}
	if on.Metrics["ns/op"] != 123456 || on.Metrics["build-hit%"] != 59.20 {
		t.Errorf("metrics: %v", on.Metrics)
	}
	if off := results[1]; off.Metrics["ns/op"] != 234567 || len(off.Metrics) != 1 {
		t.Errorf("second result metrics: %v", off.Metrics)
	}
}

// -benchmem appends B/op and allocs/op pairs; they must parse like any
// other metric, including exact zeros (the logic-sim zero-alloc contract
// CI records).
func TestParseBenchMemColumns(t *testing.T) {
	input := `BenchmarkSimEval-4    	  300000	      3770 ns/op	       0 B/op	       0 allocs/op
BenchmarkBIST/lanes=64-4 	       1	  55566217 ns/op	        64.00 cov%	         1.562 passes/session	  149008 B/op	      92 allocs/op
PASS
`
	results, err := parseBench(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("%d results, want 2", len(results))
	}
	eval := results[0]
	if v, ok := eval.Metrics["allocs/op"]; !ok || v != 0 {
		t.Errorf("allocs/op = %v (present %v), want 0", v, ok)
	}
	if v := eval.Metrics["B/op"]; v != 0 {
		t.Errorf("B/op = %v, want 0", v)
	}
	bist := results[1]
	if bist.Metrics["passes/session"] != 1.562 || bist.Metrics["allocs/op"] != 92 {
		t.Errorf("bist metrics: %v", bist.Metrics)
	}
}

func TestParseBenchBadValue(t *testing.T) {
	if _, err := parseBench(strings.NewReader("BenchmarkX-4 10 oops ns/op\n")); err == nil {
		t.Fatal("malformed value not rejected")
	}
}
