// replicate.go is the peer-to-peer replication layer that lets a
// cluster of workers with PRIVATE -store directories survive permanent
// node loss (DESIGN.md §4j). Anti-entropy is the only way records move
// between worker stores: every ReplicateInterval the worker discovers
// Alive peers via the coordinator's /cluster/v1/nodes and pulls each
// peer's delta stream over GET /store/v1/pull (internal/server/
// replicate.go) in bounded batches of the peer store's own record frames,
// each checked by store.DecodeFrames before it is applied, resuming from
// a per-peer cursor. A peer whose indexing epoch changed (it restarted)
// streams from the start again — applies are idempotent, so
// over-pulling costs bandwidth, never correctness.
//
// Failure discipline: every remote exchange is deadline-bounded and
// jitter-backed-off per peer, a fault is a counter
// (`server.replicate.error`) plus a retry later — never a blocked
// serving path, a failed client request, or a crashed process. The
// cluster.replicate.fetch / cluster.replicate.apply chaos sites inject
// faults before each pull and each local apply.
package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/store"
)

// ReplicatorConfig wires a worker's anti-entropy loop.
type ReplicatorConfig struct {
	// Coordinator is the coordinator's base URL, used only for peer
	// discovery (GET /cluster/v1/nodes); records flow worker-to-worker.
	Coordinator string
	// SelfID is this node's cluster ID (the advertised URL by
	// convention), excluded from the peer set.
	SelfID string
	// Store is the local private store replicated records land in.
	Store *store.Store
	// Interval is the anti-entropy period (default 2s).
	Interval time.Duration
	// RetryMax caps the per-peer backoff after consecutive failures
	// (default 30s).
	RetryMax time.Duration
	// MaxBatch bounds records per pull exchange (default 256).
	MaxBatch int
	// FetchTimeout bounds every remote call (default 5s).
	FetchTimeout time.Duration
	// Stats receives the replicate counters (nil ok).
	Stats *stats.Stats
	// Client performs the HTTP calls (nil = a client with FetchTimeout).
	Client *http.Client
	// JitterSeed seeds the backoff jitter; 0 derives one from the clock.
	JitterSeed int64
}

// peerSync is the per-peer replication state: where the last pull
// stopped and how hard the peer is currently backing off.
type peerSync struct {
	cursor   store.Cursor
	failures int
	notUntil time.Time
}

// Replicator runs a worker's anti-entropy loop. Construct with
// StartReplicator; Stop it before closing the store.
type Replicator struct {
	cfg    ReplicatorConfig
	client *http.Client

	jitter *server.Jitter

	mu    sync.Mutex
	peers map[string]*peerSync

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// StartReplicator launches the anti-entropy loop.
func StartReplicator(cfg ReplicatorConfig) *Replicator {
	if cfg.Interval <= 0 {
		cfg.Interval = 2 * time.Second
	}
	if cfg.RetryMax <= 0 {
		cfg.RetryMax = 30 * time.Second
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 256
	}
	if cfg.FetchTimeout <= 0 {
		cfg.FetchTimeout = 5 * time.Second
	}
	if cfg.JitterSeed == 0 {
		cfg.JitterSeed = time.Now().UnixNano()
	}
	if cfg.Client == nil {
		// Private transport so Stop can release idle-connection goroutines.
		cfg.Client = &http.Client{Timeout: cfg.FetchTimeout, Transport: &http.Transport{}}
	}
	r := &Replicator{
		cfg:    cfg,
		client: cfg.Client,
		jitter: server.NewJitter(cfg.JitterSeed),
		peers:  map[string]*peerSync{},
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	go r.loop()
	return r
}

// Stop halts the loop and waits for it to exit. Idempotent.
func (r *Replicator) Stop() {
	r.stopOnce.Do(func() { close(r.stop) })
	<-r.done
	r.client.CloseIdleConnections()
}

func (r *Replicator) loop() {
	defer close(r.done)
	t := time.NewTicker(r.cfg.Interval)
	defer t.Stop()
	for {
		r.tick()
		select {
		case <-r.stop:
			return
		case <-t.C:
		}
	}
}

// tick is one anti-entropy round: refresh the peer set, then sync every
// peer that is not backing off. The whole peer sync runs under a panic
// guard — an injected ActPanic at a replicate site is a counted fault,
// never a dead loop.
func (r *Replicator) tick() {
	peers, err := r.discover()
	if err != nil {
		r.cfg.Stats.Add("server.replicate.error", 1)
		return
	}
	r.mu.Lock()
	now := time.Now()
	var due []NodeRef
	for _, p := range peers {
		ps := r.peers[p.ID]
		if ps == nil {
			ps = &peerSync{}
			r.peers[p.ID] = ps
		}
		if now.After(ps.notUntil) {
			due = append(due, p)
		}
	}
	r.mu.Unlock()
	for _, p := range due {
		err := exec.Guard("cluster.replicate", -1, func() error { return r.syncPeer(p) })
		if err != nil {
			r.cfg.Stats.Add("server.replicate.error", 1)
			r.backoffPeer(p.ID)
		} else {
			r.resetPeer(p.ID)
		}
		select {
		case <-r.stop:
			return
		default:
		}
	}
}

// backoffPeer applies capped exponential backoff with full jitter to one
// peer after a failed sync; other peers are unaffected.
func (r *Replicator) backoffPeer(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ps := r.peers[id]
	if ps == nil {
		return
	}
	ps.failures++
	d := r.cfg.Interval << uint(ps.failures-1)
	if d > r.cfg.RetryMax || d <= 0 {
		d = r.cfg.RetryMax
	}
	ps.notUntil = time.Now().Add(d/2 + r.jitter.Draw(d)/2)
}

func (r *Replicator) resetPeer(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ps := r.peers[id]; ps != nil {
		ps.failures = 0
		ps.notUntil = time.Time{}
	}
}

// discover reads the coordinator's membership table and returns the
// Alive peers (everyone but this node).
func (r *Replicator) discover() ([]NodeRef, error) {
	resp, err := r.client.Get(r.cfg.Coordinator + "/cluster/v1/nodes")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: nodes answered %d", resp.StatusCode)
	}
	return decodePeers(body, r.cfg.SelfID)
}

// decodePeers reads a /cluster/v1/nodes answer and returns its Alive
// nodes other than self.
func decodePeers(body []byte, self string) ([]NodeRef, error) {
	var nodes struct {
		Nodes []NodeInfo `json:"nodes"`
	}
	if err := json.Unmarshal(body, &nodes); err != nil {
		return nil, fmt.Errorf("cluster: bad nodes answer: %w", err)
	}
	var peers []NodeRef
	for _, n := range nodes.Nodes {
		if n.ID != self && n.State == StateAlive.String() {
			peers = append(peers, NodeRef{ID: n.ID, Addr: n.Addr})
		}
	}
	return peers, nil
}

// syncPeer brings the local store up to date with one peer: pull from
// the per-peer cursor, apply the batch, store the cursor the peer
// answered, and stop when the peer has no more. The peer's Since does the
// epoch bookkeeping: it restarts a cursor from an earlier epoch and
// answers its end of log once drained. A peer without a store (pull
// answers 404) is silently complete — replication is opt-in per node.
func (r *Replicator) syncPeer(p NodeRef) error {
	r.mu.Lock()
	cur := r.peers[p.ID].cursor
	r.mu.Unlock()
	for {
		if err := chaos.Step(chaos.SiteReplicateFetch); err != nil {
			return err
		}
		pull, ok, err := r.getPull(p, cur)
		if err != nil || !ok {
			return err
		}
		n, err := r.applyBatch(pull.Frames)
		if err != nil {
			return err
		}
		cur = pull.Next
		r.mu.Lock()
		r.peers[p.ID].cursor = cur
		r.mu.Unlock()
		if n > 0 {
			r.cfg.Stats.Add("server.replicate.pulled", int64(n))
		}
		if !pull.More {
			return nil
		}
		select {
		case <-r.stop:
			return nil
		default:
		}
	}
}

// applyBatch decodes one pulled batch of record frames and applies its
// records in stream order, returning how many the batch held. The first frame
// that fails to verify is counted and stops the batch: neither it nor
// any later record is applied, and the cursor does not advance past it.
func (r *Replicator) applyBatch(frames []byte) (int, error) {
	recs, bad := store.DecodeFrames(frames)
	for _, rec := range recs {
		if err := r.apply(rec.FP, rec.Val); err != nil {
			return 0, err
		}
	}
	if bad != nil {
		r.cfg.Stats.Add("server.replicate.crc", 1)
		return 0, bad
	}
	return len(recs), nil
}

// apply installs one pulled record under first-writer-wins: identical
// bytes are a no-op, differing bytes keep the local record and count a
// conflict (deterministic values make a real conflict a corruption
// signal, not a merge problem), and an absent record is fsynced in.
func (r *Replicator) apply(fp core.Fingerprint, val []byte) error {
	if err := chaos.Step(chaos.SiteReplicateApply); err != nil {
		return err
	}
	if cur, ok := r.cfg.Store.Get(fp); ok {
		if string(cur) == string(val) {
			return nil
		}
		r.cfg.Stats.Add("server.replicate.conflict", 1)
		return nil
	}
	if err := r.cfg.Store.Put(fp, val); err != nil {
		return err
	}
	r.cfg.Stats.Add("server.replicate.applied", 1)
	return nil
}

// getPull fetches one batch of p's delta stream from cursor c; ok is
// false when p runs without a store.
func (r *Replicator) getPull(p NodeRef, c store.Cursor) (server.PullResponse, bool, error) {
	var pr server.PullResponse
	u := fmt.Sprintf("%s/store/v1/pull?gen=%d&seg=%d&off=%d&max=%d",
		p.Addr, c.Gen, c.Seg, c.Off, r.cfg.MaxBatch)
	resp, err := r.client.Get(u)
	if err != nil {
		return pr, false, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return pr, false, err
	}
	if resp.StatusCode == http.StatusNotFound {
		return pr, false, nil
	}
	if resp.StatusCode != http.StatusOK {
		return pr, false, fmt.Errorf("cluster: pull from %s answered %d", p.ID, resp.StatusCode)
	}
	if err := json.Unmarshal(body, &pr); err != nil {
		return pr, false, fmt.Errorf("cluster: bad pull from %s: %w", p.ID, err)
	}
	return pr, true, nil
}
