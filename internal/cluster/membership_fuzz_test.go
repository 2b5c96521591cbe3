package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"repro/internal/server"
)

// serve sends one request to h and returns the recorded answer.
func serve(h http.Handler, method, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec
}

// FuzzMembership feeds arbitrary bytes to the coordinator's membership
// decoders and to the replicator's. Each of the two inputs is posted to
// both POST /cluster/v1/register and POST /cluster/v1/heartbeat of a
// coordinator that already knows one node. Every answer must be a 200 or
// a 4xx carrying a JSON error. Afterwards GET /cluster/v1/nodes must
// answer a well-formed table (IDs non-empty, unique and ascending, every
// address an absolute URL, every state known), the replicator's decoder
// must read it back as exactly the Alive nodes but itself, and placement
// must rank every Alive or Suspect node exactly once, whatever capacity
// and utilization the bodies declared. The replicator's decoder also reads
// both raw inputs, as a hostile coordinator's answer: it may refuse them
// but must not panic.
func FuzzMembership(f *testing.F) {
	for _, seed := range [][2]string{
		{`{"id":"w1","addr":"http://w1:8080","capacity":{"jobs":2,"workers":4,"queue_depth":8}}`,
			`{"id":"w1","util":{"queued":9,"inflight":1,"cache_hit_rate":0.5,"jobs_run":3}}`},
		{`{"id":"w2","addr":"http://w2:1","capacity":{"jobs":-1,"workers":-9223372036854775808,"queue_depth":-5}}`,
			`{"id":"w2","util":{"queued":-3,"store":{"records":-1,"live_bytes":9223372036854775807,"gen":18446744073709551615}}}`},
		{`{"id":"w3","addr":"http://w3:2","capacity":{"queue_depth":9223372036854775807}}`,
			`{"id":"seed","util":{"queued":9223372036854775807}}`},
		{`{"id":"w4","addr":"not a url"}`, `{"id":"ghost","util":{}}`},
		{`{"id":"","addr":"http://x:1"}`, `{"id":"seed","util":{"cache_hit_rate":1e400}}`},
		{`{"id":"w5","addr":"http://w5:1","typo":1}`, `{"id":"seed","util":{"queued":"1"}}`},
		{`{"nodes":[{"id":"a","addr":"http://a:1","state":"alive"}]}`, `{"nodes":null}`},
		{`{"id":"w6","addr":"http://w6:1"} trailing`, `null`},
		{`[`, ``},
	} {
		f.Add([]byte(seed[0]), []byte(seed[1]))
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		c := mustNew(t, Config{JitterSeed: 1})
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			c.Drain(ctx)
		}()
		h := c.Handler()
		if rec := serve(h, "POST", "/cluster/v1/register", []byte(`{"id":"seed","addr":"http://seed:1"}`)); rec.Code != http.StatusOK {
			t.Fatalf("seed registration answered %d: %s", rec.Code, rec.Body)
		}
		for _, body := range [][]byte{a, b} {
			for _, path := range []string{"/cluster/v1/register", "/cluster/v1/heartbeat"} {
				rec := serve(h, "POST", path, body)
				if rec.Code == http.StatusOK {
					continue
				}
				var e server.ErrorBody
				if rec.Code < 400 || rec.Code >= 500 || json.Unmarshal(rec.Body.Bytes(), &e) != nil || e.Error == "" {
					t.Fatalf("POST %s %q answered %d %q, want 200 or a typed 4xx", path, body, rec.Code, rec.Body)
				}
			}
		}

		rec := serve(h, "GET", "/cluster/v1/nodes", nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("nodes answered %d: %s", rec.Code, rec.Body)
		}
		var table struct {
			Nodes []NodeInfo `json:"nodes"`
		}
		dec := json.NewDecoder(bytes.NewReader(rec.Body.Bytes()))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&table); err != nil {
			t.Fatalf("nodes answer %q does not decode: %v", rec.Body, err)
		}
		routable, alive := map[string]bool{}, map[string]bool{}
		for i, n := range table.Nodes {
			if u, err := url.Parse(n.Addr); n.ID == "" || err != nil || u.Scheme == "" || u.Host == "" {
				t.Fatalf("nodes row %d %+v: empty ID or an address that is not an absolute URL", i, n)
			}
			if i > 0 && table.Nodes[i-1].ID >= n.ID {
				t.Fatalf("nodes rows %d and %d: IDs %q, %q not unique and ascending", i-1, i, table.Nodes[i-1].ID, n.ID)
			}
			switch n.State {
			case StateAlive.String():
				routable[n.ID] = true
				if n.ID != "seed" {
					alive[n.ID] = true
				}
			case StateSuspect.String():
				routable[n.ID] = true
			case StateDead.String():
			default:
				t.Fatalf("nodes row %d has state %q", i, n.State)
			}
		}
		peers, err := decodePeers(rec.Body.Bytes(), "seed")
		if err != nil || len(peers) != len(alive) {
			t.Fatalf("replicator read %d peers (%v) from a table with %d other Alive nodes", len(peers), err, len(alive))
		}
		for _, p := range peers {
			if !alive[p.ID] {
				t.Fatalf("replicator peer %+v is not an Alive node but itself", p)
			}
		}
		ranked := c.Registry().Ranked(clusterFP(string(a), string(b)))
		seen := map[string]bool{}
		for _, n := range ranked {
			if seen[n.ID] || !routable[n.ID] {
				t.Fatalf("placement ranked %q twice or not routable: %+v", n.ID, ranked)
			}
			seen[n.ID] = true
		}
		if len(seen) != len(routable) {
			t.Fatalf("placement ranked %d of %d routable nodes", len(seen), len(routable))
		}

		for _, body := range [][]byte{a, b} {
			decodePeers(body, "seed") // refusing is fine; panicking is not
		}
	})
}
