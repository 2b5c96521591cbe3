package hlts

import (
	"bytes"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestDaemonsDrainOnBootSIGTERM boots each daemon binary repeatedly and
// sends SIGTERM the moment /livez first answers. The signal handler must
// already be installed by then, so every boot drains and exits 0 instead
// of dying of the signal's default action.
func TestDaemonsDrainOnBootSIGTERM(t *testing.T) {
	goBin := filepath.Join(runtime.GOROOT(), "bin", "go")
	for _, name := range []string{"hltsd", "hltsc"} {
		t.Run(name, func(t *testing.T) {
			bin := filepath.Join(t.TempDir(), name)
			if out, err := exec.Command(goBin, "build", "-o", bin, "./cmd/"+name).CombinedOutput(); err != nil {
				t.Fatalf("build %s: %v\n%s", name, err, out)
			}
			for boot := 0; boot < 30; boot++ {
				bootThenTerm(t, bin, boot)
			}
		})
	}
}

func bootThenTerm(t *testing.T, bin string, boot int) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	cmd := exec.Command(bin, "-addr", addr)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Timeout: time.Second}
	// Poll without pausing, so the signal lands as soon after the listener
	// opens as possible: the moment it is most likely to beat the handler.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := client.Get("http://" + addr + "/livez")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("boot %d: /livez never answered: %v\n%s", boot, err, stderr.String())
		}
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("boot %d: exit after SIGTERM: %v\n%s", boot, err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "drained cleanly") {
		t.Fatalf("boot %d: no clean drain:\n%s", boot, stderr.String())
	}
}
