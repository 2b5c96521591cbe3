package report

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/atpg"
	"repro/internal/core"
	"repro/internal/dfg"
)

// fastConfig keeps test campaigns small.
func fastConfig(seed int64) Config {
	cfg := DefaultConfig(seed)
	cfg.Widths = []int{4}
	cfg.ATPGFor = func(width int) atpg.Config {
		c := atpg.DefaultConfig(seed)
		c.SampleFaults = 120
		c.RandomBatches = 1
		c.SeqLen = 10
		c.Restarts = 1
		c.BacktrackLimit = 20
		return c
	}
	return cfg
}

func TestRunCell(t *testing.T) {
	cell, err := RunCellCtx(context.Background(), dfg.BenchTseng, core.MethodOurs, 4, fastConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if cell.Coverage <= 0 || cell.Coverage > 1 {
		t.Errorf("coverage %f", cell.Coverage)
	}
	if cell.Gates == 0 || cell.Area <= 0 || cell.Modules == 0 || cell.Registers == 0 {
		t.Errorf("incomplete cell: %+v", cell)
	}
	if !strings.Contains(cell.ModuleAlloc, "(") || !strings.Contains(cell.RegisterAlloc, "R:") {
		t.Errorf("allocation strings missing: %q / %q", cell.ModuleAlloc, cell.RegisterAlloc)
	}
}

func TestRunTableTseng(t *testing.T) {
	tbl, err := RunTableCtx(context.Background(), dfg.BenchTseng, fastConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Cells) != len(core.Methods()) {
		t.Fatalf("%d cells, want %d", len(tbl.Cells), len(core.Methods()))
	}
	text := tbl.Render()
	for _, want := range []string{"CAMAD", "Approach 1", "Approach 2", "Ours", "Fault cov."} {
		if !strings.Contains(text, want) {
			t.Errorf("render missing %q", want)
		}
	}
	md := tbl.Markdown()
	if !strings.Contains(md, "| Synthesis |") || !strings.Contains(md, "Ours") {
		t.Errorf("markdown incomplete:\n%s", md)
	}
}

// TestTableByteIdenticalAcrossWorkers: the Ex table renders, and marshals
// to Markdown and JSON, byte-identically whether its cells run one at a
// time on one worker or concurrently with a budget of eight split among
// them.
func TestTableByteIdenticalAcrossWorkers(t *testing.T) {
	run := func(workers int) *Table {
		t.Helper()
		cfg := fastConfig(21)
		cfg.Workers = workers
		tbl, err := RunTableCtx(context.Background(), dfg.BenchEx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	ref := run(1)
	if ref.Partials() != 0 {
		t.Fatalf("uninterrupted run has partial cells:\n%s", ref.Render())
	}
	refJSON, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got := run(8)
	if got.Render() != ref.Render() {
		t.Errorf("render diverges at 8 workers:\n--- got ---\n%s\n--- want ---\n%s", got.Render(), ref.Render())
	}
	if got.Markdown() != ref.Markdown() {
		t.Errorf("markdown diverges at 8 workers:\n--- got ---\n%s\n--- want ---\n%s", got.Markdown(), ref.Markdown())
	}
	if gotJSON, err := json.MarshalIndent(got, "", "  "); err != nil || string(gotJSON) != string(refJSON) {
		t.Errorf("json diverges at 8 workers (err %v)", err)
	}
}

// TestCancelledTableIsPartial: a table run under an already-cancelled
// context degrades instead of erroring — every cell comes back Partial
// and both renderings carry the partial marker.
func TestCancelledTableIsPartial(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tbl, err := RunTableCtx(ctx, dfg.BenchEx, fastConfig(21))
	if err != nil {
		t.Fatalf("cancelled table errored instead of degrading: %v", err)
	}
	if len(tbl.Cells) != len(core.Methods()) || tbl.Partials() != len(tbl.Cells) {
		t.Errorf("cancelled table: %d of %d cells partial", tbl.Partials(), len(tbl.Cells))
	}
	if !strings.Contains(tbl.Render(), "*partial:") {
		t.Errorf("partial table renders without marker:\n%s", tbl.Render())
	}
	if !strings.Contains(tbl.Markdown(), "partial cell(s)") {
		t.Errorf("partial markdown has no marker:\n%s", tbl.Markdown())
	}
}

func TestFigure1(t *testing.T) {
	text, err := Figure1()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Figure 1", "N1 before N2", "sequential depth"} {
		if !strings.Contains(text, want) {
			t.Errorf("figure 1 missing %q:\n%s", want, text)
		}
	}
	// The two orders must produce different schedule lengths: the SR2
	// order absorbs the serialization into slack.
	if !strings.Contains(text, "schedule length 3") || !strings.Contains(text, "schedule length 4") {
		t.Errorf("figure 1 orders do not differ:\n%s", text)
	}
}

func TestScheduleFigures(t *testing.T) {
	for _, bench := range []string{dfg.BenchEx, dfg.BenchDct, dfg.BenchDiffeq} {
		text, err := Schedule(bench, 4)
		if err != nil {
			t.Fatalf("%s: %v", bench, err)
		}
		if !strings.Contains(text, "step") || !strings.Contains(text, "R:") {
			t.Errorf("%s schedule figure incomplete:\n%s", bench, text)
		}
	}
}

func TestParameterSweepStable(t *testing.T) {
	rows, err := ParameterSweep(dfg.BenchEx, 4, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 16 {
		t.Fatalf("%d sweep rows, want 16", len(rows))
	}
	// §5: parameters should not change the outcome much — all rows must
	// land on the same module count for Ex.
	mods := map[int]bool{}
	for _, r := range rows {
		mods[r.Modules] = true
	}
	if len(mods) > 2 {
		t.Errorf("parameter sweep produced %d distinct module counts: %v", len(mods), mods)
	}
	if !strings.Contains(RenderSweep(dfg.BenchEx, rows), "alpha") {
		t.Error("sweep rendering broken")
	}
}

func TestAblations(t *testing.T) {
	rows, err := Ablations(dfg.BenchEx, 4, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d ablation rows", len(rows))
	}
	// The frozen (phase-separated) variant cannot merge more modules than
	// the integrated algorithm.
	var paper, frozen AblationRow
	for _, r := range rows {
		if strings.HasPrefix(r.Variant, "paper") {
			paper = r
		}
		if strings.HasPrefix(r.Variant, "frozen") {
			frozen = r
		}
	}
	if frozen.Modules < paper.Modules {
		t.Errorf("frozen variant merged more modules (%d) than integrated (%d)", frozen.Modules, paper.Modules)
	}
	if !strings.Contains(RenderAblations(dfg.BenchEx, rows), "variant") {
		t.Error("ablation rendering broken")
	}
}

func TestMethodLabel(t *testing.T) {
	if methodLabel(core.MethodOurs) != "Ours" || methodLabel("x") != "x" {
		t.Error("method labels wrong")
	}
}

func TestScanStudy(t *testing.T) {
	text, err := ScanStudy(dfg.BenchTseng, 4, 2, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"scan selection", "coverage", "mean-test"} {
		if !strings.Contains(text, want) {
			t.Errorf("scan study missing %q:\n%s", want, text)
		}
	}
}

func TestBISTStudy(t *testing.T) {
	text, err := BISTStudy(dfg.BenchTseng, 4, 1, 1, []int{24}, 40, 1998, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"BIST on", "passes/session", "lanes"} {
		if !strings.Contains(text, want) {
			t.Errorf("BIST study missing %q:\n%s", want, text)
		}
	}
}

func TestTableJSON(t *testing.T) {
	tbl := &Table{Title: "t", Benchmark: "tseng", Cells: []Cell{{Method: "ours", Width: 4, Coverage: 0.9}}}
	data, err := json.MarshalIndent(tbl, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"\"Method\": \"ours\"", "\"Coverage\": 0.9"} {
		if !strings.Contains(string(data), want) {
			t.Errorf("json missing %q", want)
		}
	}
}

// TestCapFaults: a cap below a width's fault sample lowers it to the cap;
// 0 or a cap at or above the sample keeps the paper's 1500 faults at 4
// and 8 bits and 1000 at 16 bits. The seed and restarts do not move.
func TestCapFaults(t *testing.T) {
	sample := map[int]int{4: 1500, 8: 1500, 16: 1000}
	for _, c := range []int{0, -1, 300, 1000, 1200, 1500, 5000} {
		base := DefaultConfig(1998)
		cfg := DefaultConfig(1998)
		cfg.CapFaults(c)
		for w, s := range sample {
			want := base.ATPGFor(w)
			if want.SampleFaults != s {
				t.Fatalf("width %d: default sample %d, want %d", w, want.SampleFaults, s)
			}
			if c > 0 && c < s {
				want.SampleFaults = c
			}
			got := cfg.ATPGFor(w)
			if got.SampleFaults != want.SampleFaults || got.Seed != want.Seed || got.Restarts != want.Restarts {
				t.Errorf("cap %d, width %d: sample %d seed %d restarts %d, want %d %d %d", c, w,
					got.SampleFaults, got.Seed, got.Restarts, want.SampleFaults, want.Seed, want.Restarts)
			}
		}
	}
}
