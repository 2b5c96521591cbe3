// The load differential test: the interactive-small schedule the repo
// benchmark sends, driven through a coordinator fronting two workers,
// must answer byte-identically to the same schedule driven at a single
// direct worker — the serving topology must be invisible in the payload
// — and the cluster must actually deduplicate the repeats: total
// pipeline executions equal the schedule's unique keys, everything else
// served by the workers' caches or coalesced onto in-flight twins.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/loadgen"
	"repro/internal/server"
)

// driveSchedule sends every request with 8 in flight and returns the
// answer per request key (path and body). Any answer that is not a
// complete 200, or that differs from an earlier answer to the same key,
// fails the test.
func driveSchedule(t *testing.T, client *http.Client, base string, reqs []loadgen.Request) map[string][]byte {
	t.Helper()
	var (
		mu     sync.Mutex
		bodies = map[string][]byte{}
		wg     sync.WaitGroup
		slots  = make(chan struct{}, 8)
	)
	for _, r := range reqs {
		slots <- struct{}{}
		wg.Add(1)
		go func(r loadgen.Request) {
			defer wg.Done()
			defer func() { <-slots }()
			resp, err := client.Post(base+r.Path, "application/json", bytes.NewReader(r.Body))
			if err != nil {
				t.Errorf("POST %s %s: %v", r.Path, r.Body, err)
				return
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			var probe struct{ Status string }
			if err != nil || resp.StatusCode != http.StatusOK ||
				json.Unmarshal(body, &probe) != nil || probe.Status != "complete" {
				t.Errorf("POST %s %s: status %d, read error %v, body %.200s; want a complete 200",
					r.Path, r.Body, resp.StatusCode, err, body)
				return
			}
			key := r.Path + "\x00" + string(r.Body)
			mu.Lock()
			defer mu.Unlock()
			if prev, ok := bodies[key]; ok && !bytes.Equal(prev, body) {
				t.Errorf("repeat of %s answered differently within one run", r.Body)
			}
			bodies[key] = body
		}(r)
	}
	wg.Wait()
	return bodies
}

func TestLoadInteractiveClusterDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a coordinator and three workers; skipped in -short")
	}

	sched, err := loadgen.BuildSchedule(loadgen.ScheduleOptions{
		Profile: loadgen.ProfileInteractive, Seed: 9, Rate: 400, Requests: 80,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Reference: the identical schedule against one direct worker.
	direct := server.New(server.Config{Jobs: 2, Workers: 4, CacheSize: 64})
	dts := httptest.NewServer(direct.Handler())
	defer func() {
		dts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := direct.Drain(ctx); err != nil {
			t.Errorf("direct drain: %v", err)
		}
	}()
	ref := driveSchedule(t, dts.Client(), dts.URL, sched.Requests)
	if t.Failed() {
		t.FailNow()
	}
	unique := len(ref)

	// Cluster: coordinator + two registered workers. Liveness is made
	// deliberately tolerant: a scheduler stall under full-suite load must
	// not demote a healthy worker and flap key placement mid-run.
	cfg := fastConfig()
	cfg.MaxDeadline = 60 * time.Second
	cfg.SuspectBeats = 40
	cfg.DeadAfter = 10 * time.Second
	c := mustNew(t, cfg)
	cts := httptest.NewServer(c.Handler())
	defer cts.Close()

	type worker struct {
		srv   *server.Server
		ts    *httptest.Server
		agent *Agent
	}
	workers := make([]*worker, 2)
	for i := range workers {
		w := &worker{srv: server.New(server.Config{Jobs: 2, Workers: 4, CacheSize: 64})}
		w.ts = httptest.NewServer(w.srv.Handler())
		w.agent = StartAgent(AgentConfig{
			Coordinator: cts.URL,
			ID:          fmt.Sprintf("w%d", i),
			Advertise:   w.ts.URL,
			Capacity:    Capacity{Jobs: 2, Workers: 4, QueueDepth: 64},
			Interval:    25 * time.Millisecond,
		})
		workers[i] = w
	}
	defer func() {
		for _, w := range workers {
			w.agent.Stop()
			w.ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			if err := w.srv.Drain(ctx); err != nil {
				t.Errorf("worker drain: %v", err)
			}
			cancel()
		}
	}()

	deadline := time.Now().Add(10 * time.Second)
	for {
		alive := 0
		for _, n := range c.reg.Nodes() {
			if n.State == "alive" {
				alive++
			}
		}
		if alive == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("workers never registered: %+v", c.reg.Nodes())
		}
		time.Sleep(2 * time.Millisecond)
	}

	got := driveSchedule(t, cts.Client(), cts.URL, sched.Requests)
	if t.Failed() {
		t.FailNow()
	}

	// Byte-identity across topologies, key by key.
	if len(got) != len(ref) {
		t.Fatalf("key sets differ: cluster %d, direct %d", len(got), len(ref))
	}
	for key, want := range ref {
		body, ok := got[key]
		if !ok {
			t.Fatalf("cluster run missing key %q", key)
		}
		if !bytes.Equal(body, want) {
			t.Errorf("response for %.80q differs between cluster and direct:\n cluster %s\n direct  %s", key, body, want)
		}
	}

	// Deduplication: rendezvous placement sends every repeat of a key to
	// the same worker, so the pipeline runs once per unique key and every
	// other response comes from the LRU or coalesces onto an in-flight
	// twin. Conservation (runs + hits == requests) is exact; the run
	// count itself gets a small allowance because a heartbeat delayed by
	// machine load can flap one key's placement onto the other worker,
	// which recomputes it (byte-identically — that is checked above).
	var jobsRun, cacheHits, coalesce int64
	for _, w := range workers {
		st := w.srv.Stats()
		jobsRun += st.Value("server.jobs.run")
		cacheHits += st.Value("server.cache.hit")
		coalesce += st.Value("server.coalesce.hit")
	}
	total := int64(len(sched.Requests))
	if served := cacheHits + coalesce + jobsRun; served != total {
		t.Errorf("runs %d + cache %d + coalesce %d = %d, want %d (every request accounted for)",
			jobsRun, cacheHits, coalesce, served, total)
	}
	if jobsRun < int64(unique) || jobsRun > int64(unique)+3 {
		t.Errorf("cluster pipeline runs = %d, want %d (one per unique key, small placement-flap allowance)",
			jobsRun, unique)
	}
	if jobsRun != int64(unique) {
		t.Logf("note: %d pipeline runs for %d unique keys (placement flap under load)", jobsRun, unique)
	}
}
