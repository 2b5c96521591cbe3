// daemon.go builds hltsd and hltsc from the repository's source, starts
// them as child processes on loopback ports, waits until they serve, and
// reads what the kernel and their /metrics endpoints say about them.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildDaemons compiles cmd/hltsd and cmd/hltsc into dir.
func buildDaemons(root, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	cmd := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "./cmd/hltsd", "./cmd/hltsc")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("build daemons: %w", err)
	}
	return nil
}

// proc is one running daemon.
type proc struct {
	name string
	url  string
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has been reaped
	err  error         // exit error, valid after done
}

func startProc(bin, name, url, logPath string, args ...string) (*proc, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// A daemon must not outlive the benchmark, even one killed mid-run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, url: url, cmd: cmd, done: make(chan struct{})}
	go func() {
		p.err = cmd.Wait()
		logf.Close()
		close(p.done)
	}()
	return p, nil
}

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// stop drains the daemon with SIGTERM, kills it if the drain hangs, and
// waits until it is reaped. A daemon that did not exit cleanly is an
// error.
func (p *proc) stop() error {
	if !p.exited() {
		_ = p.cmd.Process.Signal(syscall.SIGTERM) // an already-exited process is reaped below
		select {
		case <-p.done:
		case <-time.After(15 * time.Second):
			_ = p.cmd.Process.Kill()
			<-p.done
			return fmt.Errorf("%s: killed after a hung drain", p.name)
		}
	}
	if p.err != nil {
		return fmt.Errorf("%s: %w", p.name, p.err)
	}
	return nil
}

// cpu returns how long the daemon's threads have run, from the kernel's
// per-thread accounting (nanoseconds, unlike the tick-granular
// /proc/<pid>/stat).
func (p *proc) cpu() (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", p.cmd.Process.Pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var ns int64
	for _, t := range tasks {
		b, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			continue // the thread exited after ReadDir
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, fmt.Errorf("%s: malformed schedstat", p.name)
		}
		n, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, err
		}
		ns += n
	}
	return time.Duration(ns), nil
}

// rss returns the daemon's resident set size in bytes.
func (p *proc) rss() (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmRSS:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("%s: no VmRSS in /proc status", p.name)
}

// fleet is the set of daemons one workload runs against.
type fleet struct {
	front   string  // base URL the load is sent to
	coord   *proc   // the coordinator; nil for a single hltsd
	workers []*proc // every hltsd
}

func (f *fleet) procs() []*proc {
	if f.coord == nil {
		return f.workers
	}
	return append([]*proc{f.coord}, f.workers...)
}

// stop stops every daemon, coordinator first, and reports the first that
// failed.
func (f *fleet) stop() error {
	var errs []error
	for _, p := range f.procs() {
		errs = append(errs, p.stop())
	}
	return errors.Join(errs...)
}

// stopFresh stops a fleet that has served no request. hltsd and hltsc
// start listening before they install their SIGTERM handler, so a daemon
// stopped the moment it is ready may die of the signal instead of
// draining; with nothing to drain, that is a clean stop too.
func (f *fleet) stopFresh() error {
	var errs []error
	for _, p := range f.procs() {
		if err := p.stop(); err != nil && !diedOfSIGTERM(p) {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// diedOfSIGTERM reports whether a stopped daemon was ended by the SIGTERM
// itself.
func diedOfSIGTERM(p *proc) bool {
	ws, ok := p.cmd.ProcessState.Sys().(syscall.WaitStatus)
	return ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM
}

// cpu sums the CPU time of the fleet's daemons.
func (f *fleet) cpu() (time.Duration, error) {
	var total time.Duration
	for _, p := range f.procs() {
		d, err := p.cpu()
		if err != nil {
			return 0, err
		}
		total += d
	}
	return total, nil
}

// sampleRSS samples the fleet's summed resident set every 100ms until
// stop closes, and returns the median sample in bytes. The median, unlike
// the peak, does not hinge on when the collector happened to run.
func (f *fleet) sampleRSS(stop <-chan struct{}) (float64, error) {
	var samples []float64
	t := time.NewTicker(100 * time.Millisecond)
	defer t.Stop()
	for {
		var sum int64
		for _, p := range f.procs() {
			b, err := p.rss()
			if err != nil {
				return 0, err
			}
			sum += b
		}
		samples = append(samples, float64(sum))
		select {
		case <-stop:
			return median(samples), nil
		case <-t.C:
		}
	}
}

// freeAddr returns a loopback address nothing listens on. Its port lies
// below Linux's default ephemeral range (32768-60999), so no outgoing
// connection takes it between this check and the daemon's bind.
func freeAddr() (string, error) {
	const first, span = 20000, 12000
	start := rand.Intn(span)
	for k := 0; k < 256; k++ {
		l, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", first+(start+k)%span))
		if err == nil {
			addr := l.Addr().String()
			return addr, l.Close()
		}
	}
	return "", errors.New("no free loopback port")
}

// boot starts the workload's daemons on fresh ports and returns once they
// serve: /livez answers on every daemon, a coordinator counts both
// workers alive, and every store has been replayed (hltsd opens its
// store before it listens). Store directories under dir persist across
// boots.
func boot(e *env, w *workload, dir string, n int) (*fleet, error) {
	f := &fleet{}
	launch := func(bin, name string, args ...string) (*proc, error) {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		p, err := startProc(filepath.Join(e.bins, bin), name, "http://"+addr,
			filepath.Join(dir, fmt.Sprintf("%s.%d.log", name, n)),
			append([]string{"-addr", addr, "-drain-timeout", "10s"}, args...)...)
		return p, err
	}
	fail := func(err error) (*fleet, error) {
		_ = f.stop() // the boot error is the one to report
		return nil, err
	}
	if w.cluster {
		c, err := launch("hltsc", "hltsc", "-heartbeat", "250ms")
		if err != nil {
			return fail(err)
		}
		f.coord, f.front = c, c.url
		for i := 0; i < 2; i++ {
			p, err := launch("hltsd", fmt.Sprintf("hltsd-%d", i),
				"-coordinator", c.url, "-heartbeat", "250ms", "-replicate-interval", "1s",
				"-jobs", "1", "-workers", "1", "-store", filepath.Join(dir, fmt.Sprintf("store-%d", i)))
			if err != nil {
				return fail(err)
			}
			f.workers = append(f.workers, p)
		}
	} else {
		n := strconv.Itoa(e.nproc)
		args := append([]string{"-jobs", n, "-workers", n}, w.args...)
		if w.store {
			args = append(args, "-store", filepath.Join(dir, "store"))
		}
		p, err := launch("hltsd", "hltsd", args...)
		if err != nil {
			return fail(err)
		}
		f.workers, f.front = []*proc{p}, p.url
	}
	for _, p := range f.procs() {
		if err := waitReady(p, func(b []byte) bool { return true }, "/livez"); err != nil {
			return fail(err)
		}
	}
	if f.coord != nil {
		alive := func(b []byte) bool {
			var h struct{ Alive int }
			return json.Unmarshal(b, &h) == nil && h.Alive == len(f.workers)
		}
		if err := waitReady(f.coord, alive, "/healthz"); err != nil {
			return fail(err)
		}
	}
	return f, nil
}

var pollClient = &http.Client{Timeout: 10 * time.Second}

// waitReady polls path on the daemon every 200µs until it answers
// 200 with a body ok accepts.
func waitReady(p *proc, ok func([]byte) bool, path string) error {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if p.exited() {
			return fmt.Errorf("%s exited during start-up: %v", p.name, p.err)
		}
		if resp, err := pollClient.Get(p.url + path); err == nil {
			b, rerr := readAll(resp)
			if rerr == nil && resp.StatusCode == http.StatusOK && ok(b) {
				return nil
			}
		}
		time.Sleep(200 * time.Microsecond)
	}
	return fmt.Errorf("%s not ready after 60s", p.name)
}

// metrics is one /metrics scrape: every sample by its full series name
// (labels included).
type metrics map[string]float64

func scrape(url string) (metrics, error) {
	resp, err := pollClient.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	b, err := readAll(resp)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s/metrics: status %d", url, resp.StatusCode)
	}
	m := metrics{}
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			m[line[:i]] += v
		}
	}
	return m, nil
}

// scrapeAll sums the scrapes of several daemons.
func scrapeAll(ps []*proc) (metrics, error) {
	sum := metrics{}
	for _, p := range ps {
		m, err := scrape(p.url)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			sum[k] += v
		}
	}
	return sum, nil
}

// delta returns after minus before for one series.
func delta(before, after metrics, series string) float64 { return after[series] - before[series] }

// histDelta is the change of the named latency histograms (stats names
// as the daemons register them) between two scrapes.
type histDelta struct {
	sum   float64 // seconds
	count float64
}

func newHistDelta(before, after metrics, names ...string) histDelta {
	var h histDelta
	for _, name := range names {
		m := promName(name) + "_seconds"
		h.sum += delta(before, after, m+"_sum")
		h.count += delta(before, after, m+"_count")
	}
	return h
}

// meanMS is the mean observation in milliseconds, 0 for none.
func (h histDelta) meanMS() float64 {
	if h.count == 0 {
		return 0
	}
	return 1e3 * h.sum / h.count
}

// promName is the exposition name of a stats name (see stats.WriteText).
func promName(name string) string {
	var b strings.Builder
	b.WriteString("hlts_")
	for _, r := range name {
		if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == '_' {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}
