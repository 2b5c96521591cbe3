package hlts

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/dfggen"
	"repro/internal/report"
)

var updateGolden = flag.Bool("update", false, "rewrite the goldens of the tests that run ("+tablesGolden+", "+supplementaryGolden+", "+countersGolden+", "+ablationsGolden+") from the current code")

// tablesGolden holds, byte for byte, the output of
//
//	hltsbench -table N -seed 1998 -widths 4,8 -faults 300   (N = 1..4)
//	hltsbench -gen 24 -gen-ops 16 -gen-loop -seed 1998 -widths 4,8 -faults 300
//
// run in that order. The tables include the TG-effort and coverage
// columns, so a change that moves a schedule, an allocation, a netlist or a
// PODEM decision shows up here.
const tablesGolden = "testdata/tables_seed1998.golden"

var goldenTables = []string{BenchEx, BenchDct, BenchDiffeq, BenchEWF}

// TestTablesGolden regenerates the golden tables and compares them byte for
// byte. Under -short it renders Table 1 at width 4 only and compares it
// with the golden's Table 1 minus the 8-bit rows. After an intended change
// to the results, rewrite the file with
//
//	go test -run '^TestTablesGolden$' -update .
func TestTablesGolden(t *testing.T) {
	if *updateGolden && testing.Short() {
		t.Fatal("-update needs the full run; drop -short")
	}
	cfg := report.DefaultConfig(1998)
	cfg.Widths = []int{4, 8}
	if testing.Short() {
		cfg.Widths = []int{4}
	}
	cfg.CapFaults(300)
	ctx := context.Background()

	var got strings.Builder
	for n, bench := range goldenTables {
		if testing.Short() && n > 0 {
			break
		}
		tbl, err := report.RunTableCtx(ctx, bench, cfg)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "--- Table %d (%s) ---\n%s\n", n+1, bench, tbl.Render())
	}
	if !testing.Short() {
		specs := make([]dfggen.Spec, 24)
		for i := range specs {
			specs[i] = dfggen.Spec{Seed: 1 + uint64(i), Ops: 16, Mix: "mixed", Shape: "mesh", Fanout: 2, Loop: true}
		}
		suite, err := report.RunGenSuiteCtx(ctx, specs, "ours", 4, cfg)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "--- Generated suite (%d behaviours, seed %d) ---\n%s\n", len(specs), 1, suite.Render())
	}

	if *updateGolden {
		if err := os.WriteFile(tablesGolden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(tablesGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := string(raw)
	if testing.Short() {
		want = want[:strings.Index(want, "--- Table 2 ")]
		row8 := fmt.Sprintf("  %5d  ", 8)
		var kept strings.Builder
		for _, line := range strings.SplitAfter(want, "\n") {
			if !strings.HasPrefix(line, row8) {
				kept.WriteString(line)
			}
		}
		want = kept.String()
	}
	compareGolden(t, tablesGolden, got.String(), want)
}

// compareGolden fails at the first line where got differs from want, the
// contents of the golden file name.
func compareGolden(t *testing.T, name, got, want string) {
	t.Helper()
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < max(len(gl), len(wl)); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s line %d differs:\n got: %q\nwant: %q\n(rerun with -update only if the change is intended)", name, i+1, g, w)
		}
	}
}

// supplementaryGolden holds, byte for byte, the output of EXPERIMENTS.md's
// supplementary command
//
//	for b in tseng paulin ewf; do
//	  hltsbench -bench $b -widths 4,8 -faults 1200 -seed 1998
//	done
//
// Its 1200-fault campaigns run the random phase, fault dropping and PODEM
// on three designs the tables do not cover.
const supplementaryGolden = "testdata/supplementary_seed1998.golden"

// TestSupplementaryGolden renders the supplementary tables in-process and
// compares them byte for byte with the golden. It takes several seconds,
// so -short and the race detector skip it. After an intended change to the
// results, rewrite the file with
//
//	go test -run '^TestSupplementaryGolden$' -update .
func TestSupplementaryGolden(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("1200-fault campaigns: skipped under -short and -race")
	}
	cfg := report.DefaultConfig(1998)
	cfg.Widths = []int{4, 8}
	cfg.CapFaults(1200)
	var got strings.Builder
	for _, bench := range []string{BenchTseng, BenchPaulin, BenchEWF} {
		tbl, err := report.RunTableCtx(context.Background(), bench, cfg)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "--- Supplementary table (%s) ---\n%s\n", bench, tbl.Render())
	}
	if *updateGolden {
		if err := os.WriteFile(supplementaryGolden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(supplementaryGolden)
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, supplementaryGolden, got.String(), string(raw))
}

// ablationsGolden holds, byte for byte, the output of
//
//	hltsbench -ablation -bench B -widths W   (B = ex, dct, diffeq; W = 4, 8)
//
// run in that order. It is the only pin on the frozen-schedule variant,
// whose candidates are checked by nothing but the scheduling problem's
// own verification.
const ablationsGolden = "testdata/ablations.golden"

// TestAblationsGolden renders the design-choice ablations in-process and
// compares them byte for byte with the golden. After an intended change to
// the results, rewrite the file with
//
//	go test -run '^TestAblationsGolden$' -update .
func TestAblationsGolden(t *testing.T) {
	var got strings.Builder
	for _, bench := range []string{BenchEx, BenchDct, BenchDiffeq} {
		for _, width := range []int{4, 8} {
			rows, err := report.Ablations(bench, width, 2, nil)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&got, "--- %d-bit ---\n%s\n", width, report.RenderAblations(bench, rows))
		}
	}
	if *updateGolden {
		if err := os.WriteFile(ablationsGolden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(ablationsGolden)
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, ablationsGolden, got.String(), string(raw))
}
