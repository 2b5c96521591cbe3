// Tests of peer-to-peer store replication (DESIGN.md §4j): anti-entropy
// convergence between workers with private stores, a returning home
// shard and a joining worker serving replicated records through the
// coordinator, the first-writer-wins apply rule, the lossy-but-final
// registry watcher contract, and the replication chaos sweep — kill a
// worker holding the only copy of a warmed store and the surviving peer
// must serve that workload byte-identically with zero pipeline runs.
package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/store"
)

// storeWorker is one hltsd-shaped test node: a private store, a server
// exposing the /v1/ and /store/v1/ surfaces, an optional anti-entropy
// replicator, and a heartbeating agent whose beats carry the store gauge.
type storeWorker struct {
	id    string
	st    *stats.Stats
	stor  *store.Store
	repl  *Replicator
	srv   *server.Server
	ts    *httptest.Server
	agent *Agent
}

// newStoreWorker boots one node against the coordinator at coordURL.
// replInterval 0 runs without a replicator — replication is per-node
// opt-in.
func newStoreWorker(t *testing.T, coordURL, id string, replInterval time.Duration, seed int64) *storeWorker {
	t.Helper()
	stor, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w := &storeWorker{id: id, st: stats.New(), stor: stor}
	if replInterval > 0 {
		w.repl = StartReplicator(ReplicatorConfig{
			Coordinator: coordURL,
			SelfID:      id,
			Store:       stor,
			Interval:    replInterval,
			RetryMax:    20 * replInterval,
			Stats:       w.st,
			JitterSeed:  seed,
		})
	}
	w.srv = server.New(server.Config{
		QueueDepth: 64, Jobs: 2, Workers: 4, CacheSize: 16,
		Store: stor, Stats: w.st,
	})
	w.ts = httptest.NewServer(w.srv.Handler())
	w.agent = StartAgent(AgentConfig{
		Coordinator: coordURL,
		ID:          id,
		Advertise:   w.ts.URL,
		Capacity:    Capacity{Jobs: 2, Workers: 4, QueueDepth: 64},
		Interval:    25 * time.Millisecond,
		Stats:       w.st,
		Snapshot:    w.srv.Snapshot,
	})
	return w
}

// TestStoreUtilJSON pins the store gauge's shape on /cluster/v1/nodes:
// the embedded cursor marshals inline, after live_bytes, and decodes back.
func TestStoreUtilJSON(t *testing.T) {
	u := server.StoreUtil{Records: 3, LiveBytes: 120, Cursor: store.Cursor{Gen: 7, Seg: 2, Off: 64}}
	got, err := json.Marshal(server.Utilization{Store: &u})
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"queued":0,"inflight":0,"cache_hit_rate":0,"jobs_run":0,` +
		`"store":{"records":3,"live_bytes":120,"gen":7,"seg":2,"off":64}}`
	if string(got) != want {
		t.Fatalf("Utilization JSON\n got %s\nwant %s", got, want)
	}
	var back server.Utilization
	if err := json.Unmarshal(got, &back); err != nil || back.Store == nil || *back.Store != u {
		t.Fatalf("round trip: %+v, %v", back.Store, err)
	}
}

// framesOf returns the record frames a peer holding recs ships from the
// zero cursor, in the order given: what one /store/v1/pull batch carries.
func framesOf(tb testing.TB, recs ...store.Record) []byte {
	tb.Helper()
	stor, err := store.Open(tb.TempDir(), store.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	defer stor.Close()
	for _, r := range recs {
		if err := stor.Put(r.FP, r.Val); err != nil {
			tb.Fatal(err)
		}
	}
	frames, _, _ := stor.Since(store.Cursor{}, len(recs), 0)
	return frames
}

// kill tears the node down abruptly from the cluster's point of view:
// listener closed, in-flight connections severed, heartbeats and
// replication stopped. The store directory simply ceases to exist for
// everyone else — the permanent-node-loss scenario.
func (w *storeWorker) kill(t *testing.T) {
	t.Helper()
	w.ts.CloseClientConnections()
	w.ts.Close()
	w.agent.Stop()
	if w.repl != nil {
		w.repl.Stop()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := w.srv.Drain(ctx); err != nil {
		t.Errorf("drain %s: %v", w.id, err)
	}
	if err := w.stor.Close(); err != nil {
		t.Errorf("close store %s: %v", w.id, err)
	}
}

func (w *storeWorker) shutdown(t *testing.T) { w.kill(t) }

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for {
		if cond() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(3 * time.Millisecond)
	}
}

func clusterFP(parts ...string) core.Fingerprint {
	h := core.NewHasher()
	for _, p := range parts {
		h.Str(p)
	}
	return h.Sum()
}

// sameRecords compares two stores on content — every live fingerprint
// and its bytes, in Range's order — which is epoch- and
// layout-independent.
func sameRecords(a, b *store.Store) bool {
	var recs [2][]store.Record
	for i, s := range []*store.Store{a, b} {
		s.Range(func(fp core.Fingerprint, val []byte) bool {
			recs[i] = append(recs[i], store.Record{FP: fp, Val: val})
			return true
		})
	}
	return reflect.DeepEqual(recs[0], recs[1])
}

// TestAntiEntropyConverges: records written only to worker A appear
// byte-identically in worker B's private store via the pull loop, the
// coordinator's replicate-lag gauge sees the gap open and close, and
// /cluster/v1/nodes renders each node's store state.
func TestAntiEntropyConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("replication integration test is too slow for -short")
	}
	base := runtime.NumGoroutine()
	cfg := fastConfig()
	c := mustNew(t, cfg)
	cts := httptest.NewServer(c.Handler())

	a := newStoreWorker(t, cts.URL, "wA", 0, 1) // A: source only, no replicator
	b := newStoreWorker(t, cts.URL, "wB", 0, 1) // B: replicator started below

	// Warm A's store directly: replication moves store records, whatever
	// wrote them.
	want := map[core.Fingerprint][]byte{}
	for i := 0; i < 5; i++ {
		fp := clusterFP("rec", fmt.Sprint(i))
		val := []byte(fmt.Sprintf("payload-%d", i))
		if err := a.stor.Put(fp, val); err != nil {
			t.Fatal(err)
		}
		want[fp] = val
	}

	// The heartbeat gauge sees the divergence: A reports 5 records, B
	// reports 0, so the coordinator's lag gauge reads 5.
	waitFor(t, 10*time.Second, "replicate lag gauge to open", func() bool {
		return c.st.Gauge("cluster.replicate.lag") == 5
	})

	// The membership table renders the store state operators (and peers)
	// read lag from.
	status, _, body := doReq(t, cts.Client(), "GET", cts.URL+"/cluster/v1/nodes", "")
	if status != http.StatusOK {
		t.Fatalf("nodes: status %d", status)
	}
	var nodes struct {
		Nodes []NodeInfo `json:"nodes"`
	}
	if err := json.Unmarshal(body, &nodes); err != nil {
		t.Fatalf("nodes: %v", err)
	}
	recsOf := map[string]int{}
	for _, n := range nodes.Nodes {
		if n.Util.Store != nil {
			recsOf[n.ID] = n.Util.Store.Records
		}
	}
	if recsOf["wA"] != 5 || recsOf["wB"] != 0 {
		t.Fatalf("nodes missing store gauges: %+v", recsOf)
	}

	// Start B's anti-entropy loop: it must discover A, pull the delta, and
	// converge byte-identically.
	repl := StartReplicator(ReplicatorConfig{
		Coordinator: cts.URL, SelfID: "wB", Store: b.stor,
		Interval: 10 * time.Millisecond, RetryMax: 200 * time.Millisecond,
		Stats: b.st, JitterSeed: 1,
	})
	// The replicator counts a record as applied just after its Put, so
	// wait for the fifth count too, not only for the stores to match.
	waitFor(t, 10*time.Second, "stores to converge", func() bool {
		return sameRecords(a.stor, b.stor) && b.st.Value("server.replicate.applied") >= 5
	})
	for fp, val := range want {
		if got, ok := b.stor.Get(fp); !ok || string(got) != string(val) {
			t.Fatalf("record %s on B: %q %v, want %q", fp, got, ok, val)
		}
	}
	if b.st.Value("server.replicate.applied") != 5 {
		t.Errorf("replicate.applied = %d, want 5", b.st.Value("server.replicate.applied"))
	}
	if b.st.Value("server.replicate.pulled") < 5 {
		t.Errorf("replicate.pulled = %d, want >= 5", b.st.Value("server.replicate.pulled"))
	}
	// Converged: the lag gauge closes once B's next beats carry 5 records.
	waitFor(t, 10*time.Second, "replicate lag gauge to close", func() bool {
		return c.st.Gauge("cluster.replicate.lag") == 0
	})

	repl.Stop()
	a.shutdown(t)
	b.shutdown(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c.Drain(ctx); err != nil {
		t.Errorf("coordinator drain: %v", err)
	}
	cts.Close()
	settle(t, base)
}

// TestReplicatorSkipsStorelessPeer: a peer running without -store
// answers pull with a typed 404, which the replicator reads as "nothing
// to pull", not as a fault — no record arrives and no
// server.replicate.error is counted, however often it asks.
func TestReplicatorSkipsStorelessPeer(t *testing.T) {
	base := runtime.NumGoroutine()
	c := mustNew(t, fastConfig())
	cts := httptest.NewServer(c.Handler())

	var pulls atomic.Int64
	bare := server.New(server.Config{QueueDepth: 4, Jobs: 1})
	bts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/store/v1/pull" {
			pulls.Add(1)
		}
		bare.Handler().ServeHTTP(w, r)
	}))
	agent := StartAgent(AgentConfig{
		Coordinator: cts.URL, ID: "bare", Advertise: bts.URL,
		Capacity: Capacity{Jobs: 1, Workers: 1, QueueDepth: 4},
		Interval: 25 * time.Millisecond, Snapshot: bare.Snapshot,
	})
	w := newStoreWorker(t, cts.URL, "wB", 10*time.Millisecond, 1)
	waitFor(t, 10*time.Second, "three pulls from the storeless peer", func() bool {
		return pulls.Load() >= 3
	})
	if n := w.st.Value("server.replicate.error"); n != 0 {
		t.Errorf("replicate.error = %d against a storeless peer, want 0", n)
	}
	if n := w.st.Value("server.replicate.pulled"); n != 0 || w.stor.Len() != 0 {
		t.Errorf("pulled %d records (store holds %d) from a storeless peer", n, w.stor.Len())
	}

	w.shutdown(t)
	agent.Stop()
	bts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := bare.Drain(ctx); err != nil {
		t.Errorf("drain bare: %v", err)
	}
	if err := c.Drain(ctx); err != nil {
		t.Errorf("coordinator drain: %v", err)
	}
	cts.Close()
	settle(t, base)
}

// waitAlive waits until the coordinator lists id as Alive at addr.
func waitAlive(t *testing.T, c *Coordinator, id, addr string) {
	t.Helper()
	waitFor(t, 10*time.Second, id+" to register", func() bool {
		for _, n := range c.reg.Nodes() {
			if n.ID == id && n.Addr == addr && n.State == StateAlive.String() {
				return true
			}
		}
		return false
	})
}

// TestAntiEntropyServesReturningAndJoiningShards: anti-entropy alone
// brings a node that missed a write up to date. A request fails over
// while its home shard is down; the home returns with an empty store,
// converges, and then answers that fingerprint through the coordinator
// without a pipeline run. A new worker that outranks both for the
// fingerprint joins with an empty store and does the same.
func TestAntiEntropyServesReturningAndJoiningShards(t *testing.T) {
	if testing.Short() {
		t.Skip("replication integration test is too slow for -short")
	}
	base := runtime.NumGoroutine()
	c := mustNew(t, fastConfig())
	cts := httptest.NewServer(c.Handler())

	// The fingerprint the coordinator will compute for this body, derived
	// exactly as its handler does.
	reqBody := `{"bench":"ex","width":4}`
	var sreq server.SynthesizeRequest
	if err := json.Unmarshal([]byte(reqBody), &sreq); err != nil {
		t.Fatal(err)
	}
	norm, err := sreq.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	fp := norm.Fingerprint()
	// outranking picks an ID that rendezvous placement puts ahead of
	// every one of others for fp.
	outranking := func(prefix string, others ...string) string {
		for i := 0; i < 1024; i++ {
			cand := fmt.Sprintf("%s-%d", prefix, i)
			if Rank(fp, append([]string{cand}, others...))[0] == cand {
				return cand
			}
		}
		t.Fatalf("no %s ID outranks %v", prefix, others)
		return ""
	}
	homeID := outranking("home", "live")
	joinID := outranking("join", "live", homeID)

	live := newStoreWorker(t, cts.URL, "live", 10*time.Millisecond, 1)
	// The home shard is down: registered, but its address refuses
	// connections.
	c.reg.Register(homeID, "http://127.0.0.1:1", Capacity{Jobs: 1, Workers: 1, QueueDepth: 4})
	waitAlive(t, c, "live", live.ts.URL)
	status, hdr, want := doReq(t, cts.Client(), "POST", cts.URL+"/v1/synthesize", reqBody)
	if status != http.StatusOK || hdr.Get("X-Hlts-Node") != "live" {
		t.Fatalf("failover request: status %d from %q, want 200 from the live peer: %s", status, hdr.Get("X-Hlts-Node"), want)
	}

	// serveReplica boots a worker under id with an empty store, waits for
	// its anti-entropy loop to converge with the live worker, and asks the
	// coordinator for fp: that worker must answer, byte-identically,
	// without running the pipeline.
	serveReplica := func(id string, seed int64) *storeWorker {
		t.Helper()
		w := newStoreWorker(t, cts.URL, id, 10*time.Millisecond, seed)
		waitAlive(t, c, id, w.ts.URL)
		waitFor(t, 10*time.Second, id+" to converge", func() bool {
			return sameRecords(live.stor, w.stor)
		})
		status, hdr, got := doReq(t, cts.Client(), "POST", cts.URL+"/v1/synthesize", reqBody)
		if status != http.StatusOK || hdr.Get("X-Hlts-Node") != id {
			t.Fatalf("%s: status %d from %q, want 200 from %s: %s", id, status, hdr.Get("X-Hlts-Node"), id, got)
		}
		if string(got) != string(want) {
			t.Fatalf("%s answered different bytes:\n got %.160s\nwant %.160s", id, got, want)
		}
		if runs := w.st.Value("server.jobs.run"); runs != 0 {
			t.Errorf("%s ran the pipeline %d times despite holding the replica", id, runs)
		}
		return w
	}
	home := serveReplica(homeID, 2)
	joiner := serveReplica(joinID, 3)

	for _, w := range []*storeWorker{live, home, joiner} {
		w.shutdown(t)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c.Drain(ctx); err != nil {
		t.Errorf("coordinator drain: %v", err)
	}
	cts.Close()
	settle(t, base)
}

// TestReplicatorApply pins first-writer-wins on the only path that
// writes replicated records: an absent record is stored, identical bytes
// are a no-op, differing bytes keep the local record and count a
// conflict, and a frame that fails to verify mid-batch is counted once
// and never reaches the store — nor does any record after it.
func TestReplicatorApply(t *testing.T) {
	stor, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer stor.Close()
	st := stats.New()
	r := &Replicator{cfg: ReplicatorConfig{Store: stor, Stats: st}}
	batch := func(frames []byte) error { _, err := r.applyBatch(frames); return err }
	rec := func(name, val string) store.Record {
		return store.Record{FP: clusterFP("apply", name), Val: []byte(val)}
	}

	for i := 0; i < 2; i++ { // the second pass is the identical-bytes no-op
		if err := batch(framesOf(t, rec("first", "first"))); err != nil {
			t.Fatalf("apply pass %d: %v", i, err)
		}
	}
	if got := st.Value("server.replicate.applied"); got != 1 {
		t.Errorf("replicate.applied = %d, want 1", got)
	}
	if err := batch(framesOf(t, rec("first", "second"))); err != nil {
		t.Fatalf("conflicting apply: %v", err)
	}
	if v, _ := stor.Get(clusterFP("apply", "first")); string(v) != "first" {
		t.Errorf("conflict overwrote the first write: %q", v)
	}
	if got := st.Value("server.replicate.conflict"); got != 1 {
		t.Errorf("replicate.conflict = %d, want 1", got)
	}

	before := framesOf(t, rec("before", "before"))
	bad := framesOf(t, rec("bad", "bad"))
	bad[len(bad)-1] ^= 1 // a value byte: the frame checksum fails
	after := framesOf(t, rec("after", "after"))
	if err := batch(append(append(before, bad...), after...)); err == nil {
		t.Fatal("a batch with a corrupt frame applied cleanly")
	}
	if got := st.Value("server.replicate.crc"); got != 1 {
		t.Errorf("replicate.crc = %d, want 1", got)
	}
	if _, ok := stor.Get(clusterFP("apply", "before")); !ok {
		t.Error("the record before the corrupt frame was not applied")
	}
	for _, name := range []string{"bad", "after"} {
		if _, ok := stor.Get(clusterFP("apply", name)); ok {
			t.Errorf("record %q at or after the corrupt frame reached the store", name)
		}
	}
	if stor.Len() != 2 || st.Value("server.replicate.applied") != 2 {
		t.Errorf("store holds %d records (%d applied) after the bad batch, want 2",
			stor.Len(), st.Value("server.replicate.applied"))
	}
}

// FuzzPullResponse feeds arbitrary bytes through the path a /store/v1/pull
// answer takes in syncPeer: JSON decode, then applyBatch. It must never
// panic, and every record that reaches the store must come from a frame
// that verifies, before the batch's first bad frame.
func FuzzPullResponse(f *testing.F) {
	good := framesOf(f, store.Record{FP: clusterFP("fuzz", "a"), Val: []byte("alpha")},
		store.Record{FP: clusterFP("fuzz", "b")})
	bad := framesOf(f, store.Record{FP: clusterFP("fuzz", "c"), Val: []byte("gamma")})
	bad[len(bad)-1] ^= 1
	goodBody, _ := json.Marshal(server.PullResponse{Frames: good, Next: store.Cursor{Gen: 1, Off: 64}})
	badBody, _ := json.Marshal(server.PullResponse{Frames: append(append([]byte(nil), good[:len(good)/2]...), bad...)})
	for _, s := range [][]byte{goodBody, badBody, []byte(`{}`), []byte(`{"frames":null}`),
		[]byte(`{"frames":"aFNnMQ=="}`), []byte(`[`), nil} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var pr server.PullResponse
		if json.Unmarshal(body, &pr) != nil || len(pr.Frames) == 0 {
			return
		}
		stor, err := store.Open(t.TempDir(), store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer stor.Close()
		r := &Replicator{cfg: ReplicatorConfig{Store: stor, Stats: stats.New()}}
		r.applyBatch(pr.Frames)    // an error is a refused batch, not a failure
		valid := map[string]bool{} // fp ‖ value of every record before the first bad frame
		recs, _ := store.DecodeFrames(pr.Frames)
		for _, rec := range recs {
			valid[rec.FP.String()+string(rec.Val)] = true
		}
		stor.Range(func(fp core.Fingerprint, val []byte) bool {
			if !valid[fp.String()+string(val)] {
				t.Fatalf("record %s reached the store from a frame that does not verify", fp)
			}
			return true
		})
	})
}

// TestRegistryWatchChurn: an unread watcher under rapid membership
// churn never wedges the registry, and when the churn stops the LAST
// buffered events describe every node's final state — the drop-oldest
// contract. (A drop-newest channel would end full of stale transitions.)
func TestRegistryWatchChurn(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(0, 0)
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	advance := func(d time.Duration) {
		mu.Lock()
		now = now.Add(d)
		mu.Unlock()
	}
	reg := NewRegistry(50*time.Millisecond, 200*time.Millisecond, clock)
	ch := reg.Watch() // never read during the churn

	// Far more transitions than the channel buffers: every cycle flips 5
	// nodes alive -> suspect -> alive. If emit blocked on the full
	// channel, this loop would deadlock.
	nodes := []string{"n0", "n1", "n2", "n3", "n4"}
	for cycle := 0; cycle < 40; cycle++ {
		for _, id := range nodes {
			reg.Register(id, "http://"+id, Capacity{})
			reg.MarkSuspect(id)
		}
	}
	// The final transitions: the clock jumps past DeadAfter and every
	// node dies. These five events are the newest — drop-oldest must keep
	// all of them.
	advance(300 * time.Millisecond)
	reg.Sweep()

	var drained []Event
	for {
		select {
		case e := <-ch:
			drained = append(drained, e)
		default:
			goto done
		}
	}
done:
	if len(drained) == 0 {
		t.Fatal("nothing buffered")
	}
	if len(drained) > 64 {
		t.Fatalf("channel over-buffered: %d events", len(drained))
	}
	last := map[string]Event{}
	for _, e := range drained {
		last[e.ID] = e
	}
	for _, id := range nodes {
		e, ok := last[id]
		if !ok {
			t.Errorf("node %s: final event dropped entirely", id)
			continue
		}
		if e.To != StateDead {
			t.Errorf("node %s: last buffered event says %v, final state is dead", id, e.To)
		}
	}
	// Close delivers promptly even to a never-read subscriber.
	reg.Close()
	waitFor(t, 5*time.Second, "watcher channel to close", func() bool {
		for {
			select {
			case _, ok := <-ch:
				if !ok {
					return true
				}
			default:
				return false
			}
		}
	})
}

// TestReplicationSweep is the acceptance sweep of the PR: per seed, two
// workers with PRIVATE stores replicate under injected fetch/apply
// faults; the warmed worker is then killed for good, and the survivor
// must serve the dead node's entire workload byte-identically through
// the coordinator with ZERO pipeline runs — no shared disk anywhere.
func TestReplicationSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("replication sweep is too slow for -short")
	}
	for _, seed := range []int64{1, 2, 3, 5, 8, 13, 21, 34} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runReplicationSweep(t, seed)
		})
	}
}

func runReplicationSweep(t *testing.T, seed int64) {
	base := runtime.NumGoroutine()
	// Fault mix varies by seed: fetches error, applies alternate between
	// typed errors and panics (the guard must absorb both).
	applyAct := chaos.ActError
	if seed%2 == 0 {
		applyAct = chaos.ActPanic
	}
	in := chaos.New(seed).
		On(chaos.SiteReplicateFetch, chaos.Rule{Action: chaos.ActError, Prob: 0.25}).
		On(chaos.SiteReplicateApply, chaos.Rule{Action: applyAct, Prob: 0.2})
	restore := chaos.Install(in)
	defer restore()

	cfg := fastConfig()
	cfg.Rounds = 6
	cfg.RetryBase = 2 * time.Millisecond
	cfg.RetryMax = 20 * time.Millisecond
	cfg.MaxDeadline = 60 * time.Second
	cfg.JitterSeed = seed
	c := mustNew(t, cfg)
	cts := httptest.NewServer(c.Handler())

	a := newStoreWorker(t, cts.URL, "wA", 10*time.Millisecond, seed)
	b := newStoreWorker(t, cts.URL, "wB", 10*time.Millisecond, seed+1)

	waitFor(t, 10*time.Second, "both workers to register", func() bool {
		alive := 0
		for _, n := range c.reg.Nodes() {
			if n.State == "alive" {
				alive++
			}
		}
		return alive == 2
	})

	// Warm ONLY worker A, directly — its private store holds the only
	// durable copy of these acknowledged results.
	workload := []string{
		`{"bench":"ex","width":4}`,
		`{"bench":"ex","width":8}`,
		`{"bench":"diffeq","width":8}`,
	}
	want := make([][]byte, len(workload))
	for i, body := range workload {
		status, _, got := doReq(t, cts.Client(), "POST", a.ts.URL+"/v1/synthesize", body)
		if status != http.StatusOK {
			t.Fatalf("warm request %d: status %d: %s", i, status, got)
		}
		want[i] = got
	}

	// Anti-entropy under fault injection: B must converge to A's store
	// despite erroring fetches and panicking applies.
	waitFor(t, 30*time.Second, "stores to converge under chaos", func() bool {
		return sameRecords(a.stor, b.stor)
	})
	aRecords := map[core.Fingerprint][]byte{}
	a.stor.Range(func(fp core.Fingerprint, val []byte) bool {
		aRecords[fp] = append([]byte(nil), val...)
		return true
	})
	if len(aRecords) != len(workload) {
		t.Fatalf("A holds %d records after warming, want %d", len(aRecords), len(workload))
	}
	for fp, val := range aRecords {
		got, ok := b.stor.Get(fp)
		if !ok || string(got) != string(val) {
			t.Fatalf("record %s not byte-identical on B after convergence", fp)
		}
	}

	// Permanent loss of the only originally-warmed node.
	a.kill(t)
	waitFor(t, 10*time.Second, "coordinator to see exactly one live node", func() bool {
		alive := 0
		for _, n := range c.reg.Nodes() {
			if n.State == "alive" {
				alive++
			}
		}
		return alive == 1
	})

	// The dead node's workload through the coordinator: every request must
	// answer 200 byte-identical to the original acknowledgment, and B must
	// never run the pipeline — the replicated bytes are the answer.
	for i, body := range workload {
		status, _, got := doReq(t, cts.Client(), "POST", cts.URL+"/v1/synthesize", body)
		if status != http.StatusOK {
			t.Fatalf("post-kill request %d: status %d: %s (an acknowledged record was lost)", i, status, got)
		}
		if string(got) != string(want[i]) {
			t.Fatalf("post-kill request %d differs from the acknowledged bytes:\n got %.160s\nwant %.160s", i, got, want[i])
		}
	}
	if runs := b.st.Value("server.jobs.run"); runs != 0 {
		t.Errorf("survivor recomputed %d jobs despite holding the replicas", runs)
	}
	if in.Fired(chaos.SiteReplicateFetch)+in.Fired(chaos.SiteReplicateApply) == 0 {
		t.Errorf("replication chaos never fired (fetch hits=%d apply hits=%d) — the sweep tested nothing",
			in.Hits(chaos.SiteReplicateFetch), in.Hits(chaos.SiteReplicateApply))
	}
	t.Logf("seed=%d: converged %d records; fetch fired=%d apply fired=%d; survivor errors=%d",
		seed, len(aRecords), in.Fired(chaos.SiteReplicateFetch), in.Fired(chaos.SiteReplicateApply),
		b.st.Value("server.replicate.error"))

	b.shutdown(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c.Drain(ctx); err != nil {
		t.Errorf("coordinator drain: %v", err)
	}
	cts.Close()
	settle(t, base)
}
