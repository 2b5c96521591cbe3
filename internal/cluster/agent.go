// agent.go is the worker side of the cluster protocol: a small loop that
// registers the node with the coordinator and then heartbeats its live
// utilization on a ticker. The agent is deliberately stateless and
// self-healing — registration retries until it lands, and a heartbeat
// answered 404 (a coordinator that restarted and lost its membership
// table) triggers a re-registration on the next tick.
package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/server"
	"repro/internal/stats"
)

// AgentConfig wires a worker into a coordinator.
type AgentConfig struct {
	// Coordinator is the coordinator's base URL.
	Coordinator string
	// ID names this node; the advertised URL is the conventional choice.
	ID string
	// Advertise is the base URL the coordinator should dispatch to.
	Advertise string
	// Capacity is the node's declared serving limits.
	Capacity Capacity
	// Snapshot produces the utilization carried by each beat (nil = zero
	// utilization).
	Snapshot func() server.Utilization
	// Interval is the beat period; a positive HeartbeatMS in the
	// coordinator's registration answer overrides it (default 2s).
	Interval time.Duration
	// Stats receives the agent's beat/registration counters (nil ok).
	Stats *stats.Stats
}

// Agent is a running registration + heartbeat loop. Construct with
// StartAgent; Stop it before shutting the worker down.
type Agent struct {
	cfg    AgentConfig
	client *http.Client

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// StartAgent launches the loop: register (retrying until it succeeds),
// then beat every interval.
func StartAgent(cfg AgentConfig) *Agent {
	if cfg.Interval <= 0 {
		cfg.Interval = 2 * time.Second
	}
	if cfg.ID == "" {
		cfg.ID = cfg.Advertise
	}
	if cfg.Snapshot == nil {
		cfg.Snapshot = func() server.Utilization { return server.Utilization{} }
	}
	// Each call is bounded by one beat period; a private transport so Stop
	// can release idle-connection goroutines.
	client := &http.Client{Timeout: cfg.Interval, Transport: &http.Transport{}}
	a := &Agent{cfg: cfg, client: client, stop: make(chan struct{}), done: make(chan struct{})}
	go a.loop()
	return a
}

// Stop halts the loop and waits for it to exit. Idempotent.
func (a *Agent) Stop() {
	a.stopOnce.Do(func() { close(a.stop) })
	<-a.done
	a.client.CloseIdleConnections()
}

func (a *Agent) loop() {
	defer close(a.done)
	t := time.NewTicker(a.cfg.Interval)
	defer t.Stop()
	registered := a.register(t)
	for {
		select {
		case <-a.stop:
			return
		case <-t.C:
			if !registered {
				registered = a.register(t)
				continue
			}
			registered = a.beat()
		}
	}
}

// register announces the node; a positive heartbeat_ms in the answer
// adopts the coordinator's beat period, resetting the beat ticker t.
func (a *Agent) register(t *time.Ticker) bool {
	var resp RegisterResponse
	status, err := a.post("/cluster/v1/register", RegisterRequest{
		ID: a.cfg.ID, Addr: a.cfg.Advertise, Capacity: a.cfg.Capacity,
	}, &resp)
	if err != nil || status != http.StatusOK {
		a.cfg.Stats.Add("cluster.agent.register.error", 1)
		return false
	}
	if ms := resp.HeartbeatMS; ms > 0 && ms <= math.MaxInt64/int64(time.Millisecond) {
		t.Reset(time.Duration(ms) * time.Millisecond)
	}
	a.cfg.Stats.Add("cluster.agent.registered", 1)
	return true
}

// beat sends one heartbeat; false means the agent must re-register (the
// coordinator answered 404 or was unreachable — it may have restarted).
func (a *Agent) beat() bool {
	if err := chaos.Step(chaos.SiteClusterHeartbeat); err != nil {
		// An injected heartbeat fault drops the beat on the floor, the
		// signature of a lossy network; the coordinator's health tracker
		// must degrade the node to Suspect, then Dead.
		a.cfg.Stats.Add("cluster.agent.beat.dropped", 1)
		return true
	}
	status, err := a.post("/cluster/v1/heartbeat", HeartbeatRequest{
		ID: a.cfg.ID, Util: a.cfg.Snapshot(),
	}, nil)
	switch {
	case err != nil:
		a.cfg.Stats.Add("cluster.agent.beat.error", 1)
		return false
	case status == http.StatusNotFound:
		a.cfg.Stats.Add("cluster.agent.beat.unknown", 1)
		return false
	case status != http.StatusOK:
		a.cfg.Stats.Add("cluster.agent.beat.error", 1)
		return true
	}
	a.cfg.Stats.Add("cluster.agent.beats", 1)
	return true
}

func (a *Agent) post(path string, v, out any) (int, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return 0, err
	}
	resp, err := a.client.Post(a.cfg.Coordinator+path, "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if err != nil {
		return 0, err
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, out); err != nil {
			return resp.StatusCode, fmt.Errorf("cluster: bad %s answer: %w", path, err)
		}
	}
	return resp.StatusCode, nil
}
