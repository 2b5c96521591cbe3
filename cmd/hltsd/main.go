// Command hltsd is the synthesis-as-a-service daemon: it serves the
// high-level test synthesis pipeline over an HTTP JSON API.
//
//	hltsd -addr :8080
//
// Endpoints:
//
//	POST /v1/synthesize      run one synthesis flow on a benchmark or VHDL body
//	POST /v1/testdesign      synthesis + netlist + ATPG (+ optional scan/BIST)
//	GET  /v1/table/{bench}   reproduce a full experiment table
//	GET  /healthz            readiness (503 while draining)
//	GET  /livez              liveness
//	GET  /metrics            Prometheus text-format counters and histograms
//
// Jobs run on a bounded queue with admission control (429 + Retry-After
// at capacity) and fingerprint coalescing: identical concurrent requests
// share one computation and byte-identical responses. With -store DIR,
// completed results are also written through to a crash-safe persistent
// store and reloaded at boot, so a restarted daemon serves a repeat
// workload from a hot cache without recomputing. SIGINT/SIGTERM
// starts a graceful drain — queued jobs finish (or land best-so-far
// partial results when -drain-timeout expires) before the process exits;
// a second signal forces the drain deadline immediately.
// -cpuprofile FILE writes a CPU profile of the whole run, boot to drained,
// for `go tool pprof`; it changes no response byte.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/store"
)

// advertiseURL derives the dispatch URL workers announce when -advertise
// is not given: a bare ":8080" listen address advertises localhost.
func advertiseURL(addr string) string {
	if strings.HasPrefix(addr, ":") {
		addr = "127.0.0.1" + addr
	}
	return "http://" + addr
}

func main() {
	var (
		addr    = flag.String("addr", ":8080", "listen address")
		queue   = flag.Int("queue", 64, "job queue depth; beyond it requests are answered 429")
		jobs    = flag.Int("jobs", 2, "jobs run concurrently")
		workers = flag.Int("workers", runtime.GOMAXPROCS(0), "total worker-goroutine budget, divided between concurrent jobs and the parallelism inside each")
		maxDL   = flag.Duration("max-deadline", 2*time.Minute, "per-job computation cap; requests may tighten it with deadline_ms but never exceed it")
		drainTO = flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget; jobs still running when it expires land best-so-far partial results")
		cacheSz = flag.Int("cache", 128, "result-cache capacity in entries (negative disables)")
		storeFl = flag.String("store", "", "persistent result-store directory: completed results are written through and reloaded at boot, so a restarted daemon serves repeat traffic from a hot cache (empty = in-memory only)")
		coord   = flag.String("coordinator", "", "coordinator base URL (e.g. http://host:9090): register this worker with an hltsc coordinator and heartbeat utilization (empty = standalone)")
		adv     = flag.String("advertise", "", "base URL the coordinator should dispatch to (default derived from -addr)")
		beat    = flag.Duration("heartbeat", 2*time.Second, "heartbeat period when registered with a coordinator (the coordinator's registration answer may override it)")
		replInt = flag.Duration("replicate-interval", 2*time.Second, "anti-entropy period for peer-to-peer store replication; needs both -store and -coordinator (0 disables)")
		cpuProf = flag.String("cpuprofile", "", "write a runtime/pprof CPU profile to this file, from boot until the drain after SIGTERM/SIGINT completes (empty = no profile)")
	)
	flag.Parse()
	// Install the handler before anything can answer /livez: a signal that
	// arrives during boot is buffered and drains like any other, instead of
	// killing the process with the default action.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	log.SetPrefix("hltsd: ")

	stopProfile, err := stats.StartCPUProfile(*cpuProf)
	if err != nil {
		log.Fatalf("-cpuprofile: %v", err)
	}

	var resStore *store.Store
	if *storeFl != "" {
		var err error
		resStore, err = store.Open(*storeFl, store.Options{})
		if err != nil {
			log.Fatalf("open -store %s: %v", *storeFl, err)
		}
		defer resStore.Close()
		log.Printf("result store %s: %d records", *storeFl, resStore.Len())
	}

	advertise := *adv
	if advertise == "" {
		advertise = advertiseURL(*addr)
	}

	// Peer-to-peer store replication: a worker with BOTH a private store
	// and a coordinator runs the anti-entropy loop, pulling the records
	// its peers hold. Anti-entropy is the only path by which records move
	// between stores, so -replicate-interval 0 disables replication
	// entirely.
	st := stats.New()
	var repl *cluster.Replicator
	if *coord != "" && resStore != nil && *replInt > 0 {
		repl = cluster.StartReplicator(cluster.ReplicatorConfig{
			Coordinator: *coord,
			SelfID:      advertise,
			Store:       resStore,
			Interval:    *replInt,
			Stats:       st,
		})
		log.Printf("replicating store %s with peers via %s every %v", *storeFl, *coord, *replInt)
	}

	srv := server.New(server.Config{
		QueueDepth:  *queue,
		Jobs:        *jobs,
		Workers:     *workers,
		MaxDeadline: *maxDL,
		CacheSize:   *cacheSz,
		Store:       resStore,
		Stats:       st,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	errCh := make(chan error, 1)
	go func() {
		log.Printf("listening on %s (queue %d, jobs %d, workers %d)", *addr, *queue, *jobs, *workers)
		errCh <- httpSrv.ListenAndServe()
	}()

	var agent *cluster.Agent
	if *coord != "" {
		agent = cluster.StartAgent(cluster.AgentConfig{
			Coordinator: *coord,
			ID:          advertise,
			Advertise:   advertise,
			Capacity:    cluster.Capacity{Jobs: *jobs, Workers: *workers, QueueDepth: *queue},
			Interval:    *beat,
			Stats:       srv.Stats(),
			// Each beat's store gauge is what lets the coordinator compute
			// replication lag across shards.
			Snapshot: srv.Snapshot,
		})
		log.Printf("registered with coordinator %s as %s (heartbeat %v)", *coord, advertise, *beat)
	}

	select {
	case err := <-errCh:
		log.Fatalf("serve: %v", err)
	case sig := <-sigCh:
		log.Printf("%v: draining (timeout %v)", sig, *drainTO)
	}
	if agent != nil {
		// Stop heartbeating first: the coordinator marks this node Suspect,
		// then Dead, and routes around it while the drain finishes.
		agent.Stop()
	}
	if repl != nil {
		// Stop pulling from peers before the drain closes the store.
		repl.Stop()
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTO)
	defer cancel()
	// A second signal forces the deadline, as on hltsc: in-flight jobs are
	// cancelled and degrade to partial results immediately.
	go func() {
		sig := <-sigCh
		log.Printf("%v again: forcing drain", sig)
		cancel()
	}()
	// Stop accepting connections first, then drain the job queue: queued
	// jobs finish, and when the deadline passes the remaining ones are
	// cancelled so they land partial results instead of being lost.
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if err := srv.Drain(ctx); err != nil {
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			log.Printf("drain cut short; in-flight jobs degraded to partial results")
		} else {
			log.Printf("drain: %v", err)
		}
		stopProfile()
		fmt.Fprintln(os.Stderr, "hltsd: drained (degraded)")
		os.Exit(0)
	}
	stopProfile()
	log.Printf("drained cleanly")
}
