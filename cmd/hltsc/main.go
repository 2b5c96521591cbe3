// Command hltsc is the synthesis-cluster coordinator: it fronts a fleet
// of hltsd workers, exposing the same /v1/* API a single worker does.
//
//	hltsc -addr :9090
//	hltsd -addr :8081 -coordinator http://127.0.0.1:9090
//	hltsd -addr :8082 -coordinator http://127.0.0.1:9090
//
// Workers self-register and heartbeat their live utilization; the
// coordinator marks a node suspect after -suspect-beats missed beats and
// dead after -dead-after, routes each request to the rendezvous-ranked
// owner of its fingerprint (identical requests land on the same shard
// and coalesce there), and on dispatch failure or node death retries on
// the next-ranked live node with capped exponential backoff + jitter —
// honoring the request deadline and any Retry-After hint a loaded worker
// returned. An exhausted retry budget degrades to a typed 503 with
// Retry-After, never a hung connection.
//
// Endpoints:
//
//	POST /v1/synthesize           proxied to the owning worker
//	POST /v1/testdesign           proxied to the owning worker
//	GET  /v1/table/{bench}        proxied to the owning worker
//	POST /cluster/v1/register     worker self-registration
//	POST /cluster/v1/heartbeat    worker utilization heartbeat
//	GET  /cluster/v1/nodes        membership table (alive/suspect/dead)
//	GET  /healthz /livez /metrics observability
//
// SIGINT/SIGTERM starts a graceful drain: new requests are rejected with
// 503, in-flight proxied jobs finish (or are cancelled when
// -drain-timeout expires), the health tracker stops, and registry
// watchers close. A second signal forces the drain deadline immediately.
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
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/stats"
)

func main() {
	var (
		addr     = flag.String("addr", ":9090", "listen address")
		beat     = flag.Duration("heartbeat", 2*time.Second, "heartbeat period expected of workers (advertised in registration answers)")
		suspectK = flag.Int("suspect-beats", 3, "missed beats before a node is marked suspect")
		deadTO   = flag.Duration("dead-after", 0, "silence before a node is declared dead; must exceed -suspect-beats x -heartbeat (0 = 10 heartbeats, or 4 x -suspect-beats heartbeats when that is 10 or more)")
		rounds   = flag.Int("rounds", 4, "full passes over the live ranking before a request degrades to 503")
		rBase    = flag.Duration("retry-base", 100*time.Millisecond, "initial backoff between dispatch passes")
		rMax     = flag.Duration("retry-max", 2*time.Second, "backoff cap; worker Retry-After hints are honored up to it")
		maxDL    = flag.Duration("max-deadline", 2*time.Minute, "per-request cap, dispatch retries included; deadline_ms may tighten it")
		drainTO  = flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget for in-flight proxied requests")
		maxBody  = flag.Int64("max-body", 1<<20, "request-body cap in bytes (applies to job and membership POSTs alike)")
		cpuProf  = flag.String("cpuprofile", "", "write a runtime/pprof CPU profile to this file, from boot until the drain after SIGTERM/SIGINT completes (empty = no profile)")
	)
	flag.Parse()
	// Install the handler before anything can answer /livez: a signal that
	// arrives during boot is buffered and drains like any other, instead of
	// killing the process with the default action.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	log.SetPrefix("hltsc: ")

	stopProfile, err := stats.StartCPUProfile(*cpuProf)
	if err != nil {
		log.Fatalf("-cpuprofile: %v", err)
	}

	c, err := cluster.New(cluster.Config{
		HeartbeatInterval: *beat,
		SuspectBeats:      *suspectK,
		DeadAfter:         *deadTO,
		Rounds:            *rounds,
		RetryBase:         *rBase,
		RetryMax:          *rMax,
		MaxDeadline:       *maxDL,
		MaxBodyBytes:      *maxBody,
	})
	if err != nil {
		stopProfile()
		log.Fatal(err)
	}

	// Log liveness transitions: the watcher channel is lossy by design, so
	// this observes without ever wedging the registry.
	events := c.Registry().Watch()
	go func() {
		for e := range events {
			log.Printf("node %s: %v -> %v", e.ID, e.From, e.To)
		}
	}()

	httpSrv := &http.Server{Addr: *addr, Handler: c.Handler()}
	errCh := make(chan error, 1)
	go func() {
		log.Printf("coordinating on %s (heartbeat %v, suspect after %d beats)", *addr, *beat, *suspectK)
		errCh <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		log.Fatalf("serve: %v", err)
	case sig := <-sigCh:
		log.Printf("%v: draining (timeout %v)", sig, *drainTO)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTO)
	defer cancel()
	// A second signal forces the deadline: in-flight forwards are
	// cancelled and degrade to typed 503s immediately.
	go func() {
		sig := <-sigCh
		log.Printf("%v again: forcing drain", sig)
		cancel()
	}()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if err := c.Drain(ctx); err != nil {
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			log.Printf("drain cut short; in-flight requests degraded to 503")
		} else {
			log.Printf("drain: %v", err)
		}
		stopProfile()
		fmt.Fprintln(os.Stderr, "hltsc: drained (degraded)")
		os.Exit(0)
	}
	stopProfile()
	log.Printf("drained cleanly")
}
