package dfggen_test

import (
	"context"
	"fmt"
	"testing"

	hlts "repro"
	"repro/internal/atpg"
	"repro/internal/core"
	"repro/internal/dfggen"
	"repro/internal/rtl"
	"repro/internal/validate"
)

// sweepSpecs enumerates n seeded specs covering every mix, shape,
// fan-out band and idiom combination. The specs are small (10-16 ops,
// width 4) so the full 64 x 4-flow sweep stays affordable under -race.
func sweepSpecs(n int) []dfggen.Spec {
	mixes := dfggen.Mixes()
	shapes := dfggen.Shapes()
	specs := make([]dfggen.Spec, n)
	for i := range specs {
		specs[i] = dfggen.Spec{
			Seed:   uint64(1000 + i),
			Ops:    10 + i%7,
			Mix:    mixes[i%len(mixes)],
			Shape:  shapes[i%len(shapes)],
			Fanout: 1 + i%4,
			Loop:   i%3 == 0,
			Cond:   i%4 == 0,
		}
	}
	return specs
}

// signature renders everything result-shaped about a synthesis run:
// schedule, allocation, exec time, area, mux stats. Byte equality of
// signatures is the determinism contract the cache, coalescing and
// cluster layers rely on.
func signature(res *core.Result) string {
	g := res.Design.G
	return fmt.Sprintf("%s\n%s\nexec=%d area=%+v mux=%+v status=%s",
		res.Design.Sched.String(g), res.Design.Alloc.String(g),
		res.ExecTime, res.Area, res.Mux, res.Status)
}

// TestGeneratedSweepAllFlows is the property suite of the generator
// tentpole: 64 seeded graphs (16 under -short) through all four
// synthesis flows with the structural validators on, plus RTL
// generation and netlist validation; a sample of seeds goes on through
// ATPG and BIST. Run under -race in CI.
func TestGeneratedSweepAllFlows(t *testing.T) {
	n := 64
	if testing.Short() {
		n = 16
	}
	const width = 4
	for i, spec := range sweepSpecs(n) {
		i, spec := i, spec
		t.Run(spec.Name(), func(t *testing.T) {
			t.Parallel()
			g, err := dfggen.Generate(spec, width)
			if err != nil {
				t.Fatalf("Generate: %v", err)
			}
			loopSig := dfggen.LoopSignal(spec.Name())
			for _, method := range core.Methods() {
				par := core.DefaultParams(width)
				par.Workers = 1
				par.Validate = true
				par.LoopSignal = loopSig
				res, err := core.RunCtx(context.Background(), method, g, par)
				if err != nil {
					t.Fatalf("%s: %v", method, err)
				}
				nl, err := rtl.Generate(res.Design, width, rtl.NormalMode)
				if err != nil {
					t.Fatalf("%s: rtl: %v", method, err)
				}
				if err := validate.Netlist(nl); err != nil {
					t.Fatalf("%s: netlist invariants: %v", method, err)
				}
				if method != core.MethodOurs || i%8 != 0 {
					continue
				}
				// Every 8th seed continues through the test-generation
				// flows on the "ours" design: a small ATPG campaign and a
				// BIST session, both of which exercise the sequential
				// expansion of whatever schedule shape the seed produced.
				acfg := atpg.Config{
					Seed: 1, SampleFaults: 24, RandomBatches: 1, SeqLen: 8,
					MaxFrames: nl.ATPGFrames(0), BacktrackLimit: 200, Workers: 1,
				}
				if _, err := atpg.RunCtx(context.Background(), nl.C, acfg); err != nil {
					t.Fatalf("atpg: %v", err)
				}
				tpg, misr := hlts.SelectBISTRegisters(res, 1, 1)
				bnl, err := hlts.GenerateNetlistWithBIST(res, width, tpg, misr)
				if err != nil {
					t.Fatalf("bist netlist: %v", err)
				}
				if _, err := atpg.RunBISTCfgCtx(context.Background(), bnl.C, 16, 64, atpg.BISTConfig{}); err != nil {
					t.Fatalf("bist: %v", err)
				}
			}
		})
	}
}

// TestGeneratedWorkerAndCacheEquivalence locks the determinism claims
// on generated workloads: the "ours" flow produces byte-identical
// schedules and allocations at 1 and 8 workers, and with the
// memoization cache on and off.
func TestGeneratedWorkerAndCacheEquivalence(t *testing.T) {
	n := 12
	if testing.Short() {
		n = 4
	}
	const width = 4
	for i, spec := range sweepSpecs(n) {
		spec := spec
		t.Run(spec.Name(), func(t *testing.T) {
			t.Parallel()
			g, err := dfggen.Generate(spec, width)
			if err != nil {
				t.Fatalf("Generate: %v", err)
			}
			base := core.DefaultParams(width)
			base.LoopSignal = dfggen.LoopSignal(spec.Name())
			variants := []struct {
				label   string
				mutate  func(*core.Params)
				methods []string
			}{
				{"workers=1", func(p *core.Params) { p.Workers = 1 }, core.Methods()},
				{"workers=8", func(p *core.Params) { p.Workers = 8 }, core.Methods()},
				{"nocache", func(p *core.Params) { p.Workers = 1; p.NoCache = true }, []string{core.MethodOurs}},
			}
			want := map[string]string{}
			for _, v := range variants {
				for _, method := range v.methods {
					par := base
					v.mutate(&par)
					res, err := core.RunCtx(context.Background(), method, g, par)
					if err != nil {
						t.Fatalf("%s/%s: %v", method, v.label, err)
					}
					sig := signature(res)
					if prev, ok := want[method]; !ok {
						want[method] = sig
					} else if sig != prev {
						t.Errorf("%s/%s: result differs from baseline:\n%s\n---- baseline ----\n%s", method, v.label, sig, prev)
					}
				}
			}
			_ = i
		})
	}
}

// TestGeneratedFingerprintStability pins that equal specs fingerprint
// equal and distinct seeds fingerprint distinct — the property that
// makes generated workloads usable as cache/coalescing/placement keys.
func TestGeneratedFingerprintStability(t *testing.T) {
	fp := func(seed uint64) core.Fingerprint {
		g, err := dfggen.Generate(dfggen.Spec{Seed: seed, Ops: 14}, 4)
		if err != nil {
			t.Fatalf("Generate: %v", err)
		}
		h := core.NewHasher()
		h.Graph(g)
		return h.Sum()
	}
	if fp(5) != fp(5) {
		t.Error("same seed hashed to different fingerprints")
	}
	if fp(5) == fp(6) {
		t.Error("distinct seeds hashed to the same fingerprint")
	}
}
