package hlts

import (
	"context"
	"math/rand"
	"os"
	"testing"
)

func TestFacadePipeline(t *testing.T) {
	g, err := LoadBenchmark(BenchTseng, 4)
	if err != nil {
		t.Fatal(err)
	}
	r, err := SynthesizeCtx(context.Background(), g, DefaultParams(4))
	if err != nil {
		t.Fatal(err)
	}
	n, err := GenerateNetlist(r, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultATPGConfig(1)
	cfg.SampleFaults = 100
	cfg.RandomBatches = 1
	cfg.Restarts = 0
	res, err := TestDesignCtx(context.Background(), n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage <= 0 {
		t.Errorf("zero coverage: %+v", res)
	}
}

func TestFacadeVHDLRoundTrip(t *testing.T) {
	src := `
entity mac is
  port ( a, b, c : in integer; y : out integer );
end entity;
architecture rtl of mac is
begin
  process (a, b, c)
  begin
    y <= a * b + c;
  end process;
end architecture;
`
	g, err := CompileVHDL(src, 8)
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunMethodCtx(context.Background(), MethodOurs, g, DefaultParams(8))
	if err != nil {
		t.Fatal(err)
	}
	n, err := GenerateNetlist(r, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 10; trial++ {
		a, b, c := rng.Uint64()%256, rng.Uint64()%256, rng.Uint64()%256
		out, err := n.SimulatePass(map[string]uint64{"a": a, "b": b, "c": c})
		if err != nil {
			t.Fatal(err)
		}
		if want := (a*b + c) & 0xFF; out["y"] != want {
			t.Fatalf("mac(%d,%d,%d) = %d, want %d", a, b, c, out["y"], want)
		}
	}
}

func TestFacadeLists(t *testing.T) {
	if len(Benchmarks()) != 6 {
		t.Errorf("benchmarks: %v", Benchmarks())
	}
	if len(Methods()) != 4 {
		t.Errorf("methods: %v", Methods())
	}
}

func TestFacadeBIST(t *testing.T) {
	g, err := LoadBenchmark(BenchTseng, 4)
	if err != nil {
		t.Fatal(err)
	}
	r, err := SynthesizeCtx(context.Background(), g, DefaultParams(4))
	if err != nil {
		t.Fatal(err)
	}
	tpg, misr := SelectBISTRegisters(r, 2, 2)
	if len(tpg)+len(misr) == 0 {
		t.Skip("no BIST candidates on this design")
	}
	n, err := GenerateNetlistWithBIST(r, 4, tpg, misr)
	if err != nil {
		t.Fatal(err)
	}
	out, err := RunBISTCfgCtx(context.Background(), n, 150, 60, BISTConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if out.TotalFaults == 0 || out.Coverage < 0 || out.Coverage > 1 {
		t.Errorf("bad BIST outcome %+v", out)
	}
}

func TestShippedVHDLSources(t *testing.T) {
	for _, f := range []string{"testdata/diffeq.vhd", "testdata/fir4.vhd"} {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		g, err := CompileVHDL(string(src), 8)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		r, err := SynthesizeCtx(context.Background(), g, DefaultParams(8))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		n, err := GenerateNetlist(r, 8, false)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		// Gate level agrees with the behavioural interpreter.
		rng := rand.New(rand.NewSource(21))
		in := map[string]uint64{}
		for _, v := range g.Inputs() {
			in[g.Value(v).Name] = rng.Uint64()
		}
		want, err := g.Interpret(8, in)
		if err != nil {
			t.Fatal(err)
		}
		got, err := n.SimulatePass(in)
		if err != nil {
			t.Fatal(err)
		}
		for k, w := range want {
			if got[k] != w {
				t.Fatalf("%s: output %s = %d, want %d", f, k, got[k], w)
			}
		}
	}
}
