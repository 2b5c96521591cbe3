package hlts_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	hlts "repro"
	"repro/internal/server"
)

// buildHlts builds ./cmd/hlts into a temporary directory.
func buildHlts(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "hlts")
	goBin := filepath.Join(runtime.GOROOT(), "bin", "go")
	if out, err := exec.Command(goBin, "build", "-o", bin, "./cmd/hlts").CombinedOutput(); err != nil {
		t.Fatalf("build hlts: %v\n%s", err, out)
	}
	return bin
}

// TestCLIMatchesDaemon: cmd/hlts reads its flags as the /v1/testdesign
// request hltsd reads, so both report the same design and, with -atpg,
// run the same pipeline to the same figures.
// The looped generated spec is the case where they once differed (the
// CLI missed the loop its name carries and printed 3 control steps for
// the daemon's 15); Diffeq and a plain spec ride along.
func TestCLIMatchesDaemon(t *testing.T) {
	bin := buildHlts(t)
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

	// hlts -atpg against hltsd's /v1/testdesign answer to the same
	// request: scan registers, coverage, TG effort and test cycles. On
	// Tseng-8 (1,577 collapsed faults) -faults 0 once ran every fault
	// while the daemon's faults: 0 runs the default 1,500.
	s := server.New(server.Config{})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		if err := s.Drain(context.Background()); err != nil {
			t.Error(err)
		}
	}()
	for _, c := range []struct {
		flags []string
		body  string
	}{
		{[]string{"-atpg", "-bench", "ex", "-width", "4", "-faults", "120"}, `{"bench":"ex","width":4,"faults":120}`},
		{[]string{"-atpg", "-bench", "ex", "-width", "4", "-scan", "2"}, `{"bench":"ex","width":4,"scan":2}`},
		{[]string{"-atpg", "-bench", "tseng", "-width", "8", "-faults", "0"}, `{"bench":"tseng","width":8,"faults":0}`},
	} {
		t.Run(strings.Join(c.flags, " "), func(t *testing.T) {
			out, err := exec.Command(bin, c.flags...).CombinedOutput()
			if err != nil {
				t.Fatalf("hlts: %v\n%s", err, out)
			}
			hr, err := http.Post(ts.URL+"/v1/testdesign", "application/json", strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			defer hr.Body.Close()
			var resp server.TestDesignResponse
			if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil || hr.StatusCode != http.StatusOK {
				t.Fatalf("hltsd: status %d, %v", hr.StatusCode, err)
			}
			wants := []string{
				fmt.Sprintf("ATPG: coverage %.2f%% (", 100*resp.Coverage),
				fmt.Sprintf(" effort %d kEval, %d test cycles\n", resp.TGEffort, resp.TestCycles),
			}
			if strings.Contains(c.body, "scan") {
				if len(resp.ScanRegs) == 0 {
					t.Fatal("hltsd selected no scan registers")
				}
				wants = append(wants, fmt.Sprintf("partial scan: registers %v,", resp.ScanRegs))
			}
			for _, want := range wants {
				if !strings.Contains(string(out), want) {
					t.Errorf("hlts output lacks the daemon's %q\n--- hlts printed:\n%s", want, out)
				}
			}
		})
	}
}

// TestCLIRejectsNegativeCounts: a negative -faults or -scan is the error
// hltsd answers 400 for, in hltsd's words. The fault sampler reads any
// count <= 0 as "every fault", so an unchecked -faults -1 would silently
// run the whole list.
func TestCLIRejectsNegativeCounts(t *testing.T) {
	bin := buildHlts(t)
	synth := server.SynthesizeRequest{Bench: hlts.BenchEx, Width: 4}
	for _, c := range []struct {
		flags []string
		req   server.TestDesignRequest
	}{
		{[]string{"-atpg", "-faults", "-1"}, server.TestDesignRequest{SynthesizeRequest: synth, Faults: -1}},
		{[]string{"-atpg", "-scan", "-1"}, server.TestDesignRequest{SynthesizeRequest: synth, Scan: -1}},
	} {
		t.Run(strings.Join(c.flags, " "), func(t *testing.T) {
			_, err := c.req.Normalize()
			if err == nil {
				t.Fatal("hltsd accepts the request")
			}
			args := append([]string{"-bench", hlts.BenchEx, "-width", "4"}, c.flags...)
			out, cerr := exec.Command(bin, args...).CombinedOutput()
			if cerr == nil {
				t.Errorf("hlts exited 0\n%s", out)
			}
			if !strings.Contains(string(out), err.Error()) {
				t.Errorf("hlts output lacks hltsd's %q:\n%s", err, out)
			}
		})
	}
}
