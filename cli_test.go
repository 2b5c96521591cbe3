package hlts_test

import (
	"context"
	"fmt"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	hlts "repro"
	"repro/internal/server"
)

// TestCLIMatchesDaemon: cmd/hlts reads its synthesis flags as the
// /v1/synthesize request hltsd reads, so both report the same design.
// The looped generated spec is the case where they once differed (the
// CLI missed the loop its name carries and printed 3 control steps for
// the daemon's 15); Diffeq and a plain spec ride along.
func TestCLIMatchesDaemon(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "hlts")
	goBin := filepath.Join(runtime.GOROOT(), "bin", "go")
	if out, err := exec.Command(goBin, "build", "-o", bin, "./cmd/hlts").CombinedOutput(); err != nil {
		t.Fatalf("build hlts: %v\n%s", err, out)
	}
	const looped = "gen:s3-o12-mmixed-hmesh-f2-i3-c1-loop"
	for _, bench := range []string{looped, "gen:s3-o12-mmixed-hmesh-f2-i3-c1", hlts.BenchDiffeq} {
		t.Run(bench, func(t *testing.T) {
			out, err := exec.Command(bin, "-bench", bench, "-width", "4").CombinedOutput()
			if err != nil {
				t.Fatalf("hlts: %v\n%s", err, out)
			}
			n, err := server.SynthesizeRequest{Bench: bench, Width: 4}.Normalize()
			if err != nil {
				t.Fatal(err)
			}
			res, err := hlts.RunMethodCtx(context.Background(), n.Method, n.Graph, n.Params)
			if err != nil {
				t.Fatal(err)
			}
			resp := server.BuildSynthesizeResponse(n, res)
			if bench == looped && resp.ExecTime != 15 {
				t.Errorf("exec_time %d, want 15", resp.ExecTime)
			}
			for _, want := range []string{
				fmt.Sprintf("execution time: %d control steps\n", resp.ExecTime),
				"schedule:\n" + resp.Schedule,
				"allocation:\n" + resp.Allocation,
			} {
				if !strings.Contains(string(out), want) {
					t.Errorf("hlts output lacks the daemon's\n%s\n--- hlts printed:\n%s", want, out)
				}
			}
		})
	}
}
