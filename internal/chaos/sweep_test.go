// The chaos sweep: every injection site × seeds × worker counts, driven
// against small real workloads of each subsystem, asserting the global
// robustness contracts of the execution layer:
//
//   - no injected panic ever escapes a library boundary,
//   - no run deadlocks and no goroutine leaks,
//   - every surfaced error is typed (*chaos.Error, or an *exec.ExecError
//     wrapping the injected panic, or a context error),
//   - ordered pipelines always commit a clean prefix,
//   - partial results stay internally consistent (Skipped > 0 implies
//     StatusPartial),
//   - stall-only injection never changes any result,
//   - the result store never loses an acknowledged record and never
//     trusts a corrupt one under injected write/sync/torn/corrupt
//     faults, and
//   - the checkpoint journal (an adapter over the store) resumes
//     byte-identically after torn writes.
//
// It lives in an external test package so it can drive the real
// parallel/atpg/petri/report code paths without an import cycle.
package chaos_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/atpg"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/exec"
	"repro/internal/gates"
	"repro/internal/parallel"
	"repro/internal/petri"
	"repro/internal/report"
	"repro/internal/server"
	"repro/internal/store"
)

// The sweep's partition of the site space; TestSweepSiteListsCoverAllSites
// proves the union is the whole taxonomy.
var (
	parallelSites = []string{
		chaos.SiteParallelClaim, chaos.SiteParallelStall, chaos.SiteParallelJob,
		chaos.SiteParallelProduce, chaos.SiteParallelCommit, chaos.SiteExecGuard,
	}
	atpgSites   = []string{chaos.SiteATPGFault, chaos.SiteATPGBudget}
	petriSites  = []string{chaos.SitePetriReach}
	storeSites  = []string{chaos.SiteStoreWrite, chaos.SiteStoreSync, chaos.SiteStoreTorn, chaos.SiteStoreCorrupt}
	serverSites = []string{chaos.SiteServerAccept, chaos.SiteServerEnqueue, chaos.SiteServerRespond}
	// The cluster sites are exercised by internal/cluster's own sweeps
	// (TestClusterSweepWorkerKill, TestReplicationSweep and friends), which
	// need the coordinator + worker harness living in that package; they
	// are listed here so the union check still proves the whole taxonomy
	// is covered.
	clusterSites = []string{
		chaos.SiteClusterDispatch, chaos.SiteClusterHeartbeat, chaos.SiteClusterWorkerKill,
		chaos.SiteReplicateFetch, chaos.SiteReplicateApply,
	}

	sweepSeeds   = []int64{1, 2, 3, 5, 8, 13, 21, 34}
	sweepWorkers = []int{1, 8}
)

func TestSweepSiteListsCoverAllSites(t *testing.T) {
	union := map[string]bool{}
	for _, list := range [][]string{parallelSites, atpgSites, petriSites, storeSites, serverSites, clusterSites} {
		for _, s := range list {
			union[s] = true
		}
	}
	for _, s := range chaos.Sites() {
		if !union[s] {
			t.Errorf("site %s is not exercised by the sweep", s)
		}
	}
	if len(union) != len(chaos.Sites()) {
		t.Errorf("sweep lists %d sites, taxonomy has %d", len(union), len(chaos.Sites()))
	}
}

// runGuarded runs fn under a deadlock watchdog and an escaped-panic trap.
func runGuarded(t *testing.T, name string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("%s: panic escaped the library boundary: %v", name, r)
			}
		}()
		fn()
	}()
	select {
	case <-done:
	case <-time.After(90 * time.Second):
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Fatalf("%s: deadlock (no completion in 90s)\n%s", name, buf[:n])
	}
}

// settle asserts the goroutine count returns to the baseline — the
// no-leak contract. A small grace window absorbs runtime bookkeeping.
func settle(t *testing.T, name string, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("%s: goroutines leaked (%d > baseline %d)\n%s", name, runtime.NumGoroutine(), base, buf[:n])
}

// assertTyped enforces the every-error-typed contract.
func assertTyped(t *testing.T, name string, err error) {
	t.Helper()
	if err == nil {
		return
	}
	if chaos.IsInjected(err) {
		return
	}
	if ee, ok := exec.AsExecError(err); ok {
		if chaos.IsPanicValue(ee.Value) {
			return
		}
		t.Fatalf("%s: ExecError wrapping a non-chaos panic: %v", name, ee)
	}
	t.Fatalf("%s: untyped error surfaced: %v", name, err)
}

// siteRules returns the fault actions worth injecting at a site.
func siteRules(site string) []chaos.Rule {
	if site == chaos.SiteParallelStall {
		return []chaos.Rule{{Action: chaos.ActStall, Prob: 0.4, Stall: 100 * time.Microsecond}}
	}
	return []chaos.Rule{
		{Action: chaos.ActPanic, Prob: 0.4},
		{Action: chaos.ActError, Prob: 0.4},
	}
}

// TestChaosSweepParallel drives the worker-pool primitives under
// injection at every pool/guard site.
func TestChaosSweepParallel(t *testing.T) {
	const n = 60
	for _, site := range parallelSites {
		for _, rule := range siteRules(site) {
			for _, seed := range sweepSeeds {
				for _, workers := range sweepWorkers {
					name := fmt.Sprintf("%s/%s/seed%d/w%d", site, rule.Action, seed, workers)
					in := chaos.New(seed).On(site, rule)
					restore := chaos.Install(in)
					base := runtime.NumGoroutine()
					runGuarded(t, name+"/foreach", func() {
						var sum atomic.Int64
						err := parallel.ForEachCtx(context.Background(), workers, n, func(i int) error {
							sum.Add(int64(i))
							return nil
						})
						assertTyped(t, name+"/foreach", err)
						if rule.Action != chaos.ActStall && in.Fired(site) > 0 && err == nil {
							t.Errorf("%s/foreach: %d faults fired but no error surfaced", name, in.Fired(site))
						}
					})
					runGuarded(t, name+"/ordered", func() {
						var committed []int
						err := parallel.OrderedCtx(context.Background(), workers, n,
							func(i int) (int, error) { return i * i, nil },
							func(i, v int) error {
								if v != i*i {
									t.Errorf("%s/ordered: commit %d got %d", name, i, v)
								}
								committed = append(committed, i)
								return nil
							})
						assertTyped(t, name+"/ordered", err)
						// The prefix contract: whatever was committed is exactly
						// 0..k-1 in order.
						for k, idx := range committed {
							if idx != k {
								t.Fatalf("%s/ordered: commit sequence %v is not a clean prefix", name, committed)
							}
						}
						if err == nil && len(committed) != n {
							t.Errorf("%s/ordered: clean run committed %d of %d", name, len(committed), n)
						}
					})
					settle(t, name, base)
					restore()
				}
			}
		}
	}
}

// TestChaosStallOnlyPreservesResults: a wedged worker may slow a run down
// but must never change its observable result.
func TestChaosStallOnlyPreservesResults(t *testing.T) {
	const n = 40
	run := func() (int64, []int) {
		var sum atomic.Int64
		if err := parallel.ForEachCtx(context.Background(), 4, n, func(i int) error {
			sum.Add(int64(i * i))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		var order []int
		if err := parallel.OrderedCtx(context.Background(), 4, n,
			func(i int) (int, error) { return i, nil },
			func(i, v int) error { order = append(order, v); return nil },
		); err != nil {
			t.Fatal(err)
		}
		return sum.Load(), order
	}
	wantSum, wantOrder := run()
	for _, seed := range sweepSeeds[:4] {
		restore := chaos.Install(chaos.New(seed).
			On(chaos.SiteParallelStall, chaos.Rule{Action: chaos.ActStall, Prob: 0.5, Stall: 50 * time.Microsecond}))
		gotSum, gotOrder := run()
		restore()
		if gotSum != wantSum {
			t.Errorf("seed %d: stall changed ForEachCtx result: %d != %d", seed, gotSum, wantSum)
		}
		if len(gotOrder) != len(wantOrder) {
			t.Fatalf("seed %d: stall changed OrderedCtx commit count", seed)
		}
		for i := range gotOrder {
			if gotOrder[i] != wantOrder[i] {
				t.Fatalf("seed %d: stall changed OrderedCtx commit order", seed)
			}
		}
	}
}

// sweepCircuit is a small sequential circuit with enough faults to give
// the campaign real work at chaos-sweep speed.
func sweepCircuit(t *testing.T) *gates.Circuit {
	t.Helper()
	b := gates.NewBuilder()
	var ins [4]int
	for i := range ins {
		ins[i] = b.Input(fmt.Sprintf("i%d", i))
	}
	d1, d2 := b.DFF("d1"), b.DFF("d2")
	x := b.Xor(b.And(ins[0], ins[1]), d1)
	y := b.Or(b.Xor(ins[2], ins[3]), d2)
	b.SetD(d1, y)
	b.SetD(d2, x)
	b.Output("o1", b.And(x, y))
	b.Output("o2", b.Xor(x, d2))
	c, err := b.Done()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func sweepATPGConfig(seed int64, workers int) atpg.Config {
	cfg := atpg.DefaultConfig(seed)
	cfg.RandomBatches = 1
	cfg.SeqLen = 8
	cfg.MaxFrames = 8
	cfg.BacktrackLimit = 50
	cfg.Restarts = 1
	cfg.Workers = workers
	return cfg
}

// TestChaosSweepATPG injects per-fault panics and mid-batch budget
// exhaustion into the campaign and checks the partial-result bookkeeping
// stays consistent.
func TestChaosSweepATPG(t *testing.T) {
	c := sweepCircuit(t)
	for _, site := range atpgSites {
		for _, rule := range siteRules(site) {
			for _, seed := range sweepSeeds {
				for _, workers := range sweepWorkers {
					name := fmt.Sprintf("%s/%s/seed%d/w%d", site, rule.Action, seed, workers)
					in := chaos.New(seed).On(site, rule)
					restore := chaos.Install(in)
					base := runtime.NumGoroutine()
					runGuarded(t, name, func() {
						res, err := atpg.RunCtx(context.Background(), c, sweepATPGConfig(seed, workers))
						assertTyped(t, name, err)
						if err != nil {
							return
						}
						panicked := 0
						for _, o := range res.Outcomes {
							if o == atpg.OutcomePanicked {
								panicked++
							}
						}
						if panicked != len(res.Errors) {
							t.Errorf("%s: %d panicked outcomes but %d recorded errors", name, panicked, len(res.Errors))
						}
						if (res.Skipped > 0 || panicked > 0) && res.Status != exec.StatusPartial {
							t.Errorf("%s: skipped=%d panicked=%d but status %v", name, res.Skipped, panicked, res.Status)
						}
						if res.Status == exec.StatusPartial && res.Exhausted == "" {
							t.Errorf("%s: partial result with no exhausted budget", name)
						}
					})
					settle(t, name, base)
					restore()
				}
			}
		}
	}
}

// TestChaosPetriReachPartial: injected node-budget exhaustion must come
// back as a first-class partial reach set, never an error, and the
// explored prefix must be a prefix of the complete exploration.
func TestChaosPetriReachPartial(t *testing.T) {
	net, _ := petri.Chain("sweep", 50)
	full, err := net.Reachability(context.Background(), 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if full.Status != exec.StatusComplete || len(full.Nodes) != 50 {
		t.Fatalf("clean exploration: status %v, %d nodes", full.Status, len(full.Nodes))
	}
	for _, seed := range sweepSeeds {
		in := chaos.New(seed).On(chaos.SitePetriReach, chaos.Rule{Action: chaos.ActError, Prob: 0.1})
		restore := chaos.Install(in)
		r, err := net.Reachability(context.Background(), 10_000)
		fired := in.Fired(chaos.SitePetriReach)
		restore()
		if err != nil {
			t.Fatalf("seed %d: injected budget exhaustion surfaced as error: %v", seed, err)
		}
		if fired == 0 {
			continue
		}
		if r.Status != exec.StatusPartial || r.Exhausted != exec.BudgetReachNodes {
			t.Fatalf("seed %d: fired %d but status %v/%q", seed, fired, r.Status, r.Exhausted)
		}
		if len(r.Nodes) > len(full.Nodes) {
			t.Fatalf("seed %d: partial set larger than complete set", seed)
		}
		for i, nd := range r.Nodes {
			if nd.Key != full.Nodes[i].Key {
				t.Fatalf("seed %d: partial node %d diverges from the complete exploration", seed, i)
			}
		}
	}
	// An always-firing site cuts the exploration at its first expansion.
	restore := chaos.Install(chaos.New(1).On(chaos.SitePetriReach, chaos.Rule{Action: chaos.ActError}))
	defer restore()
	r, err := net.Reachability(context.Background(), 10_000)
	if err != nil {
		t.Fatalf("always-firing site surfaced as error: %v", err)
	}
	if r.Status != exec.StatusPartial || len(r.Nodes) != 1 {
		t.Fatalf("always-firing site: status %v, %d nodes; want partial root only", r.Status, len(r.Nodes))
	}
}

// storeRule picks the fault a store site injects: the torn and corrupt
// sites implement their fault themselves (chaos.Fire), the write and
// sync sites surface a plain injected error.
func storeRule(site string) chaos.Rule {
	if site == chaos.SiteStoreTorn || site == chaos.SiteStoreCorrupt {
		return chaos.Rule{Action: chaos.ActTorn, Prob: 0.5}
	}
	return chaos.Rule{Action: chaos.ActError, Prob: 0.5}
}

// TestChaosStoreFaults drives Put through failed appends, failed fsyncs,
// torn writes and bit rot, and proves the store's durability contract:
// after reopening, every acknowledged record is present with its exact
// bytes, a corrupt record is never returned as truth, and the failed
// keys re-put cleanly.
func TestChaosStoreFaults(t *testing.T) {
	const nKeys = 24
	for _, site := range storeSites {
		for _, seed := range sweepSeeds {
			name := fmt.Sprintf("%s/seed%d", site, seed)
			dir := filepath.Join(t.TempDir(), "results")
			s, err := store.Open(dir, store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			in := chaos.New(seed).On(site, storeRule(site))
			restore := chaos.Install(in)
			acked := map[core.Fingerprint][]byte{}
			var failed []core.Fingerprint
			for i := 0; i < nKeys; i++ {
				h := core.NewHasher()
				h.Str(fmt.Sprintf("cell-%d", i))
				fp := h.Sum()
				val := []byte(fmt.Sprintf("result-%s-%d", site, i))
				err := s.Put(fp, val)
				assertTyped(t, name, err)
				if err == nil {
					acked[fp] = val
				} else {
					failed = append(failed, fp)
					// An unacknowledged record must not be served back now…
					if v, ok := s.Get(fp); ok && string(v) != string(val) {
						t.Fatalf("%s: unacknowledged put visible with wrong bytes: %q", name, v)
					}
				}
			}
			restore()
			if in.FiredTotal() == 0 {
				t.Fatalf("%s: no faults fired", name)
			}
			s.Close()

			// "Reboot": torn tails healed, corrupt records dropped — and
			// nothing acknowledged is lost or altered.
			s2, err := store.Open(dir, store.Options{})
			if err != nil {
				t.Fatalf("%s: reopen after faults: %v", name, err)
			}
			for fp, val := range acked {
				got, ok := s2.Get(fp)
				if !ok {
					t.Errorf("%s: acknowledged record %s lost across reopen", name, fp)
				} else if string(got) != string(val) {
					t.Errorf("%s: acknowledged record %s altered: %q != %q", name, fp, got, val)
				}
			}
			// …and after the reboot a failed key either replays the exact
			// written bytes (fsync-failed record that did land: a harmless
			// duplicate of a deterministic value) or is absent. Re-putting
			// cleanly must work either way.
			for i, fp := range failed {
				val := []byte(fmt.Sprintf("recomputed-%d", i))
				if v, ok := s2.Get(fp); ok && strings.HasPrefix(string(v), "recomputed") {
					t.Errorf("%s: impossible value for unacked key: %q", name, v)
				}
				if err := s2.Put(fp, val); err != nil {
					t.Errorf("%s: clean re-put failed: %v", name, err)
				} else if v, ok := s2.Get(fp); !ok || string(v) != string(val) {
					t.Errorf("%s: re-put record unreadable: %q %v", name, v, ok)
				}
			}
			if s2.Len() != nKeys {
				t.Errorf("%s: store holds %d records, want %d", name, s2.Len(), nKeys)
			}
			s2.Close()
		}
	}
}

// TestChaosJournalFaults drives the checkpoint journal — now an adapter
// over the store — through the same fault sites and proves it heals:
// reopening skips damage, un-recorded cells record cleanly afterwards,
// and no cell is ever lost once Record returned nil.
func TestChaosJournalFaults(t *testing.T) {
	methods := []string{"camad", "approach1", "approach2", "ours"}
	mkCell := func(m string, w int) report.Cell {
		return report.Cell{Method: m, Width: w, Coverage: 0.5, Gates: w * 10}
	}
	for _, site := range storeSites {
		for _, seed := range sweepSeeds {
			name := fmt.Sprintf("%s/seed%d", site, seed)
			path := filepath.Join(t.TempDir(), "sweep.ckpt")
			j, err := report.OpenJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			in := chaos.New(seed).On(site, storeRule(site))
			restore := chaos.Install(in)
			type cell struct {
				m string
				w int
			}
			var recorded []cell
			for _, m := range methods {
				for _, w := range []int{4, 8} {
					err := j.Record("bench", mkCell(m, w))
					assertTyped(t, name, err)
					if err == nil {
						recorded = append(recorded, cell{m, w})
					}
				}
			}
			restore()
			j.Close()

			// Reopen: everything Record acknowledged must be there; damage
			// is healed. Then the failed cells re-record cleanly.
			j2, err := report.OpenJournal(path)
			if err != nil {
				t.Fatalf("%s: reopen after faults: %v", name, err)
			}
			for _, c := range recorded {
				if _, ok := j2.Lookup("bench", c.m, c.w); !ok {
					t.Errorf("%s: acknowledged cell %s/%d lost across reopen", name, c.m, c.w)
				}
			}
			for _, m := range methods {
				for _, w := range []int{4, 8} {
					if err := j2.Record("bench", mkCell(m, w)); err != nil {
						t.Errorf("%s: clean re-record of %s/%d failed: %v", name, m, w, err)
					}
				}
			}
			if j2.Len() != len(methods)*2 {
				t.Errorf("%s: journal holds %d cells, want %d", name, j2.Len(), len(methods)*2)
			}
			j2.Close()
		}
	}
}

// TestChaosStoreNeverFailsServing: a daemon whose persistent store is
// being fault-injected must keep answering 200 — the store is an
// accelerator, never a dependency — and still drain cleanly without
// leaking goroutines.
func TestChaosStoreNeverFailsServing(t *testing.T) {
	body := `{"bench":"ex","width":4}` + "\n"
	for _, site := range storeSites {
		for _, seed := range sweepSeeds[:4] {
			name := fmt.Sprintf("%s/seed%d", site, seed)
			stor, err := store.Open(filepath.Join(t.TempDir(), "results"), store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			in := chaos.New(seed).On(site, chaos.Rule{Action: storeRule(site).Action, Prob: 0.7})
			restore := chaos.Install(in)
			base := runtime.NumGoroutine()
			runGuarded(t, name, func() {
				srv := server.New(server.Config{QueueDepth: 32, Jobs: 2, Workers: 2, CacheSize: -1, Store: stor})
				ts := httptest.NewServer(srv.Handler())
				for i := 0; i < 8; i++ {
					resp, err := http.Post(ts.URL+"/v1/synthesize", "application/json", strings.NewReader(body))
					if err != nil {
						t.Fatalf("%s: transport error (daemon crashed?): %v", name, err)
					}
					payload, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Fatalf("%s: store fault surfaced to the client: %d %s", name, resp.StatusCode, payload)
					}
				}
				ts.Close()
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				if err := srv.Drain(ctx); err != nil {
					t.Errorf("%s: drain under store injection: %v", name, err)
				}
			})
			settle(t, name, base)
			restore()
			stor.Close()
		}
	}
}

// TestChaosSweepServer drives the daemon's serving layer under injection
// at the accept, enqueue and respond sites: every response must still be
// well-formed JSON with a sane status code (an injected error is a typed
// 5xx, an injected panic is recovered to a 500 — never a crashed daemon
// or a torn body), and the server must still drain cleanly, leaking no
// goroutines.
func TestChaosSweepServer(t *testing.T) {
	body := `{"bench":"ex","width":4}` + "\n"
	for _, site := range serverSites {
		for _, rule := range []chaos.Rule{
			{Action: chaos.ActError, Prob: 0.5},
			{Action: chaos.ActPanic, Prob: 0.5},
		} {
			for _, seed := range sweepSeeds[:4] {
				name := fmt.Sprintf("%s/%s/seed%d", site, rule.Action, seed)
				in := chaos.New(seed).On(site, rule)
				restore := chaos.Install(in)
				base := runtime.NumGoroutine()
				runGuarded(t, name, func() {
					srv := server.New(server.Config{QueueDepth: 32, Jobs: 2, Workers: 2, CacheSize: -1})
					ts := httptest.NewServer(srv.Handler())
					ok, faulted := 0, 0
					for i := 0; i < 12; i++ {
						resp, err := http.Post(ts.URL+"/v1/synthesize", "application/json", strings.NewReader(body))
						if err != nil {
							t.Fatalf("%s: transport error (daemon crashed?): %v", name, err)
						}
						payload, err := io.ReadAll(resp.Body)
						resp.Body.Close()
						if err != nil {
							t.Fatalf("%s: torn response body: %v", name, err)
						}
						if !json.Valid(payload) {
							t.Fatalf("%s: response %d is not JSON: %q", name, resp.StatusCode, payload)
						}
						switch resp.StatusCode {
						case http.StatusOK:
							ok++
						case http.StatusInternalServerError, http.StatusServiceUnavailable:
							faulted++
						default:
							t.Fatalf("%s: unexpected status %d: %s", name, resp.StatusCode, payload)
						}
					}
					if fired := in.Fired(site); fired > 0 && faulted == 0 {
						t.Errorf("%s: %d faults fired but every response was 200", name, fired)
					} else if fired == 0 && ok != 12 {
						t.Errorf("%s: no faults fired but only %d/12 responses were 200", name, ok)
					}
					ts.Close()
					ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
					defer cancel()
					if err := srv.Drain(ctx); err != nil {
						t.Errorf("%s: drain under injection: %v", name, err)
					}
				})
				settle(t, name, base)
				restore()
			}
		}
	}
}

// checkpointConfig mirrors the fast table configuration of the report
// package's resume tests.
func checkpointConfig(workers, par int) report.Config {
	cfg := report.DefaultConfig(21)
	cfg.Widths = []int{4}
	cfg.ATPGFor = func(width int) atpg.Config {
		c := atpg.DefaultConfig(21 + int64(width))
		c.SampleFaults = 120
		c.RandomBatches = 1
		c.Restarts = 1
		return c
	}
	cfg.Workers = workers
	cfg.Parallel = par
	return cfg
}

// TestChaosJournalResumeByteIdentical is the acceptance criterion: a
// sweep whose store writes are being torn by injection behaves like a
// killed run — and resuming from that checkpoint, faults gone, renders
// the table byte-identically to an uninterrupted run.
func TestChaosJournalResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("table runs are too slow for -short")
	}
	const bench = dfg.BenchEx
	ref, err := report.RunTableCtx(context.Background(), bench, checkpointConfig(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	refText, refMd := ref.Render(), ref.Markdown()

	for _, seed := range []int64{3, 11} {
		dir := t.TempDir()
		path := filepath.Join(dir, "chaos.ckpt")
		j, err := report.OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		cfg := checkpointConfig(1, 1)
		cfg.Journal = j
		in := chaos.New(seed).On(chaos.SiteStoreTorn, chaos.Rule{Action: chaos.ActTorn, Prob: 0.5})
		restore := chaos.Install(in)
		_, runErr := report.RunTableCtx(context.Background(), bench, cfg)
		fired := in.Fired(chaos.SiteStoreTorn)
		restore()
		j.Close()
		assertTyped(t, fmt.Sprintf("seed%d", seed), runErr)
		if fired == 0 {
			t.Fatalf("seed %d: torn-write injection never fired", seed)
		}

		// "Reboot": reopen the journal (healing any torn tail) and rerun
		// without faults.
		j2, err := report.OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		cfg2 := checkpointConfig(1, 1)
		cfg2.Journal = j2
		tbl, err := report.RunTableCtx(context.Background(), bench, cfg2)
		if err != nil {
			t.Fatal(err)
		}
		j2.Close()
		if got := tbl.Render(); got != refText {
			t.Errorf("seed %d: resumed table differs from uninterrupted run:\n--- got ---\n%s\n--- want ---\n%s", seed, got, refText)
		}
		if got := tbl.Markdown(); got != refMd {
			t.Errorf("seed %d: resumed markdown differs from uninterrupted run", seed)
		}
	}
	_ = os.Remove
}
