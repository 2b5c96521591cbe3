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
	for _, name := range []string{"hltsd", "hltsc"} {
		t.Run(name, func(t *testing.T) {
			bin := buildCmd(t, name)
			for boot := 0; boot < 30; boot++ {
				bootThenTerm(t, bin, boot)
			}
		})
	}
}

// buildCmd builds ./cmd/<name> into a temporary directory.
func buildCmd(t *testing.T, name string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), name)
	goBin := filepath.Join(runtime.GOROOT(), "bin", "go")
	if out, err := exec.Command(goBin, "build", "-o", bin, "./cmd/"+name).CombinedOutput(); err != nil {
		t.Fatalf("build %s: %v\n%s", name, err, out)
	}
	return bin
}

// freeAddr returns a loopback address no listener holds right now.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

func bootThenTerm(t *testing.T, bin string, boot int) {
	t.Helper()
	addr := freeAddr(t)
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

// TestHltscRejectsDeadAfterInsideSuspectWindow: an explicit -dead-after
// at or below -suspect-beats x -heartbeat would skip the Suspect state.
// hltsc must refuse it at boot, exiting non-zero and naming both values,
// instead of silently serving with some other timeout.
func TestHltscRejectsDeadAfterInsideSuspectWindow(t *testing.T) {
	bin := buildCmd(t, "hltsc")
	cmd := exec.Command(bin, "-addr", freeAddr(t), "-heartbeat", "2s", "-suspect-beats", "3", "-dead-after", "5s")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	select {
	case err := <-exited:
		if err == nil {
			t.Fatalf("hltsc exited 0 on -dead-after 5s under a 6s suspect window\n%s", stderr.String())
		}
	case <-time.After(10 * time.Second):
		cmd.Process.Kill()
		<-exited
		t.Fatalf("hltsc accepted -dead-after 5s under a 6s suspect window and kept serving\n%s", stderr.String())
	}
	for _, v := range []string{"5s", "6s"} {
		if !strings.Contains(stderr.String(), v) {
			t.Errorf("error does not name %s:\n%s", v, stderr.String())
		}
	}
}

// TestHltsdSecondSignalForcesDrain: a second SIGTERM cuts hltsd's drain
// short, as it does hltsc's. With a long drain timeout and a testdesign
// job in flight that runs for many seconds, the daemon must exit 0 with
// "drained (degraded)" soon after the second signal, not when the job
// finishes.
func TestHltsdSecondSignalForcesDrain(t *testing.T) {
	bin := buildCmd(t, "hltsd")
	addr := freeAddr(t)
	cmd := exec.Command(bin, "-addr", addr, "-drain-timeout", "60s", "-jobs", "1", "-workers", "1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	defer func() {
		cmd.Process.Kill()
		<-exited
	}()

	client := &http.Client{Timeout: time.Second}
	waitFor := func(what string, ok func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !ok(); time.Sleep(20 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s never happened\n%s", what, stderr.String())
			}
		}
	}
	waitFor("/livez answering", func() bool {
		resp, err := client.Get("http://" + addr + "/livez")
		if err == nil {
			resp.Body.Close()
		}
		return err == nil
	})
	// A 16-bit, 64-operation behaviour with every fault targeted: the job
	// runs for tens of seconds, far longer than this test waits.
	go func() {
		body := `{"bench":"gen:s1-o64-mmul-hdeep-f2-i4-c1","width":16,"faults":0}`
		if resp, err := http.Post("http://"+addr+"/v1/testdesign", "application/json", strings.NewReader(body)); err == nil {
			resp.Body.Close()
		}
	}()
	waitFor("a job in flight", func() bool {
		resp, err := client.Get("http://" + addr + "/metrics")
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		var b bytes.Buffer
		b.ReadFrom(resp.Body)
		return strings.Contains(b.String(), "\nhlts_server_inflight_jobs 1\n")
	})

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	time.Sleep(500 * time.Millisecond)
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-exited:
		exited <- err // for the deferred cleanup
		if err != nil {
			t.Fatalf("exit after the second SIGTERM: %v\n%s", err, stderr.String())
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("still running 5s after the second SIGTERM\n%s", stderr.String())
	}
	if !strings.Contains(stderr.String(), "drained (degraded)") {
		t.Fatalf("no forced drain:\n%s", stderr.String())
	}
}
