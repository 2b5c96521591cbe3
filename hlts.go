// Package hlts is the public facade of the high-level test synthesis
// system reproducing Yang & Peng, "An Efficient Algorithm to Integrate
// Scheduling and Allocation in High-Level Test Synthesis" (DATE 1998).
//
// The pipeline it exposes:
//
//	behaviour (VHDL subset or built-in benchmark)
//	   └── dfg.Graph                      CompileVHDL / LoadBenchmark
//	        └── synthesis                 SynthesizeCtx / RunMethodCtx
//	             └── ETPN design          (schedule + allocation + data path)
//	                  └── gate netlist    Netlist
//	                       └── ATPG       TestDesignCtx
//
// SynthesizeCtx runs the paper's Algorithm 1: integrated scheduling and
// allocation driven by controllability/observability balance, with
// ΔC = α·ΔE + β·ΔH merger selection and SR1/SR2 merge-sort rescheduling.
// The three baselines of the paper's evaluation (CAMAD, force-directed
// scheduling + testable left-edge, mobility-path scheduling + testable
// left-edge) run through RunMethodCtx.
//
// Every long-running entry point takes a context. Pass
// context.Background() to run to completion; a cancelled context or an
// expired deadline returns the best result so far with
// Status == StatusPartial instead of an error.
//
// Synthesis and test generation are parallel internally: Params.Workers
// and ATPGConfig.Workers set the number of worker goroutines used for the
// tie-policy exploration, fault simulation and the deterministic ATPG
// phase (0 = one per CPU, 1 = exact sequential execution). Results are
// bit-identical at every worker count — the engine in internal/parallel
// merges worker output in a fixed order — so the knobs trade wall-clock
// time only, never reproducibility.
package hlts

import (
	"context"

	"repro/internal/atpg"
	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/dfggen"
	"repro/internal/exec"
	"repro/internal/hdl"
	"repro/internal/report"
	"repro/internal/rtl"
	"repro/internal/scan"
	"repro/internal/validate"
)

// Re-exported types: the facade's vocabulary.
type (
	// Graph is the behavioural data-flow graph IR.
	Graph = dfg.Graph
	// Params configures a synthesis run (k, α, β, latency slack, width...).
	Params = core.Params
	// Result is a synthesized design with its metrics.
	Result = core.Result
	// Netlist is a generated gate-level implementation.
	Netlist = rtl.Netlist
	// ATPGConfig tunes a test-generation campaign.
	ATPGConfig = atpg.Config
	// ATPGResult reports fault coverage, effort and test length.
	ATPGResult = atpg.Result
	// Table is a reproduced experiment table.
	Table = report.Table
	// ExperimentConfig tunes table reproduction.
	ExperimentConfig = report.Config
	// Status reports whether a result is complete or a best-so-far
	// produced under an exhausted budget (deadline, backtrack or frame
	// limit, or an isolated worker panic).
	Status = exec.Status
	// ExecError is a worker panic recovered at a library boundary.
	ExecError = exec.ExecError
	// ValidationError is a violated structural invariant reported by the
	// stage-boundary checkers (Params.Validate / ExperimentConfig.Validate):
	// which stage produced the artifact, which invariant failed, and the
	// specifics. See internal/validate.
	ValidationError = validate.Error
)

// Result statuses.
const (
	StatusComplete = exec.StatusComplete
	StatusPartial  = exec.StatusPartial
)

// Typed input errors. The front-end entry points (LoadBenchmark,
// CompileVHDL) and every synthesis flow validate their inputs and reject
// nonsense with one of these — matchable with errors.Is — instead of
// failing deep inside synthesis. A Params carrying a bad width (e.g. from
// DefaultParams(0)) is rejected the same way by SynthesizeCtx /
// RunMethodCtx.
var (
	// ErrBadWidth: the data-path bit width is outside [1, 64].
	ErrBadWidth = dfg.ErrBadWidth
	// ErrUnknownBenchmark: LoadBenchmark was given a name Benchmarks()
	// does not list.
	ErrUnknownBenchmark = dfg.ErrUnknownBenchmark
)

// Synthesis method names (the rows of the paper's tables).
const (
	MethodCAMAD     = core.MethodCAMAD
	MethodApproach1 = core.MethodApproach1
	MethodApproach2 = core.MethodApproach2
	MethodOurs      = core.MethodOurs
)

// Benchmark names.
const (
	BenchEx     = dfg.BenchEx
	BenchDct    = dfg.BenchDct
	BenchDiffeq = dfg.BenchDiffeq
	BenchEWF    = dfg.BenchEWF
	BenchPaulin = dfg.BenchPaulin
	BenchTseng  = dfg.BenchTseng
)

// Benchmarks lists the built-in HLS benchmarks.
func Benchmarks() []string { return dfg.BenchmarkNames() }

// LoadBenchmark constructs a built-in benchmark at the given bit width.
func LoadBenchmark(name string, width int) (*Graph, error) { return dfg.ByName(name, width) }

// GenSpec parameterizes a seeded synthetic benchmark (see
// internal/dfggen). Specs render to "gen:..." names via GenSpec.Name,
// and LoadBenchmark resolves those names, so a generated behaviour is
// addressable everywhere a built-in benchmark is — including the
// daemon's `bench` request field.
type GenSpec = dfggen.Spec

// ErrBadGenSpec tags malformed generator specs and "gen:" names.
var ErrBadGenSpec = dfggen.ErrBadSpec

// GenLoopSignal returns the loop-exit value name for a looping
// generated benchmark name ("" otherwise); callers use it to default
// Params.LoopSignal the same way diffeq is special-cased.
func GenLoopSignal(name string) string { return dfggen.LoopSignal(name) }

// CompileVHDL compiles a behavioural VHDL-subset description into a
// data-flow graph.
func CompileVHDL(src string, width int) (*Graph, error) { return hdl.Compile(src, width) }

// DefaultParams returns the paper's default synthesis parameters
// (k, α, β) = (3, 2, 1) at the given width.
func DefaultParams(width int) Params { return core.DefaultParams(width) }

// SynthesizeCtx runs the paper's integrated test synthesis (Algorithm 1).
// When the context is cancelled or its deadline passes, the merger loop
// stops at the next iteration boundary and the best design found so far is
// returned with Status == StatusPartial instead of an error.
func SynthesizeCtx(ctx context.Context, g *Graph, p Params) (*Result, error) {
	return core.SynthesizeCtx(ctx, g, p)
}

// RunMethodCtx runs the named synthesis flow: MethodOurs or one of the
// paper's three baselines, with the same graceful degradation as
// SynthesizeCtx for the iterative flows.
func RunMethodCtx(ctx context.Context, method string, g *Graph, p Params) (*Result, error) {
	return core.RunCtx(ctx, method, g, p)
}

// Methods lists the four synthesis flows in the paper's table order.
func Methods() []string { return core.Methods() }

// GenerateNetlist produces the gate-level implementation of a synthesized
// design. With testMode true the data-path control lines become test-mode
// primary inputs (the paper's modifiable-controller assumption); otherwise
// a one-hot FSM controller is generated with one state per control step.
func GenerateNetlist(r *Result, width int, testMode bool) (*Netlist, error) {
	mode := rtl.NormalMode
	if testMode {
		mode = rtl.TestMode
	}
	return rtl.Generate(r.Design, width, mode)
}

// SelectScanRegisters greedily chooses up to max partial-scan registers
// for a synthesized design, guided by the testability analysis (see
// package scan). It returns the chosen allocation register ids in
// selection order and the mean-testability trajectory (index 0 = no
// scan).
func SelectScanRegisters(r *Result, max int) ([]int, []float64) {
	sel := scan.Select(r.Design, r.Metrics.Config(), max, 1e-9)
	return sel.Regs, sel.MeanTestability
}

// GenerateNetlistWithScan is GenerateNetlist plus a serial scan chain
// through the given allocation registers.
func GenerateNetlistWithScan(r *Result, width int, testMode bool, scanRegs []int) (*Netlist, error) {
	mode := rtl.NormalMode
	if testMode {
		mode = rtl.TestMode
	}
	return rtl.GenerateWithScan(r.Design, width, mode, scanRegs)
}

// SelectBISTRegisters chooses registers to reconfigure for built-in
// self-test: pattern generators (TPG) where controllability is weakest,
// signature registers (MISR) where observability is weakest.
func SelectBISTRegisters(r *Result, nTpg, nMisr int) (tpg, misr []int) {
	return scan.SelectBIST(r.Design, r.Metrics, nTpg, nMisr)
}

// GenerateNetlistWithBIST is GenerateNetlist plus LFSR/MISR self-test
// hardware on the selected registers (rtl.GenerateBIST).
func GenerateNetlistWithBIST(r *Result, width int, tpg, misr []int) (*Netlist, error) {
	return rtl.GenerateBIST(r.Design, width, rtl.NormalMode, tpg, misr)
}

// BISTConfig tunes a BIST session (see atpg.BISTConfig): lane count
// (independent pseudorandom sessions per simulation pass), stimulus seed
// and TPG registers for per-lane seeding.
type BISTConfig = atpg.BISTConfig

// RunBISTCfgCtx evaluates a BIST netlist: the self-test session free-runs
// for the given cycles and a fault counts as detected when its final MISR
// signature differs from the good machine's in any lane. All 64 simulator
// lanes carry independent sessions (PPSFP); cfg.Lanes: 1 gives the
// historical single-session semantics. When cfg.TPGRegs is nil the
// netlist's recorded TPG registers are used, so multi-lane sessions
// de-phase the on-chip pattern generators per lane. On cancellation or
// deadline the session stops at the next fault boundary and reports the
// coverage over the faults evaluated so far with Status == StatusPartial,
// like every other cancellable job in the system.
func RunBISTCfgCtx(ctx context.Context, n *Netlist, sampleFaults, cycles int, cfg BISTConfig) (*atpg.BISTOutcome, error) {
	if cfg.TPGRegs == nil {
		cfg.TPGRegs = n.BISTTpg
	}
	return atpg.RunBISTCfgCtx(ctx, n.C, sampleFaults, cycles, cfg)
}

// DefaultATPGConfig returns the campaign settings used by the experiment
// harness, seeded for reproducibility.
func DefaultATPGConfig(seed int64) ATPGConfig { return atpg.DefaultConfig(seed) }

// TestDesignCtx runs the stuck-at ATPG campaign (random phase plus
// time-frame PODEM) on a generated netlist and reports fault coverage,
// test-generation effort and test-application cycles — the three
// testability columns of the paper's tables. On cancellation or deadline
// the campaign returns its best-so-far coverage with
// Status == StatusPartial, unresolved faults counted as skipped.
func TestDesignCtx(ctx context.Context, n *Netlist, cfg ATPGConfig) (*ATPGResult, error) {
	cfg.MaxFrames = n.ATPGFrames(cfg.MaxFrames)
	return atpg.RunCtx(ctx, n.C, cfg)
}

// DefaultExperimentConfig returns the experiment configuration
// reproducing the paper's setup (widths 4/8/16, per-width (k,α,β)).
func DefaultExperimentConfig(seed int64) ExperimentConfig { return report.DefaultConfig(seed) }

// ReproduceTableCtx regenerates a full experiment table (all four methods
// at all configured widths) for a benchmark: Table 1 is BenchEx, Table 2
// BenchDct, Table 3 BenchDiffeq. Cells cut short by the deadline carry
// their best-so-far figures and a partial marker in the rendered table.
// Every call computes every cell; to reuse tables, serve them from
// hltsd's GET /v1/table, which caches each under a fingerprint of its
// benchmark, widths, seed and fault sample.
func ReproduceTableCtx(ctx context.Context, bench string, cfg ExperimentConfig) (*Table, error) {
	return report.RunTableCtx(ctx, bench, cfg)
}

// ValidateNetlist runs the structural invariant checkers on a generated
// netlist: gate-graph sanity, combinational acyclicity, data-bus wiring
// and — when a scan chain is present — scan-chain completeness and order.
func ValidateNetlist(n *Netlist) error { return validate.Netlist(n) }
