// Package cluster turns the single-node hltsd daemon into a
// fault-tolerant fleet: a coordinator (cmd/hltsc) fronts N hltsd workers,
// placing jobs with rendezvous hashing on the request fingerprint and
// surviving worker loss mid-job.
//
// The cluster model (DESIGN.md §4i):
//
//   - Membership: workers self-register over HTTP with their declared
//     capacity and send periodic heartbeats carrying live utilization
//     (queue depth, in-flight jobs, cache hit rate). The registry marks a
//     node Suspect after SuspectAfter without a beat (K missed beats) and
//     Dead after DeadAfter; a dispatch failure demotes a node to Suspect
//     immediately, and the next successful beat restores it to Alive.
//   - Placement: requests are routed by rendezvous hashing on the
//     canonical core.Fingerprint, so identical requests land on the same
//     shard and coalesce there for free — cluster-wide
//     exactly-once-per-fingerprint in the steady state. Node join/leave
//     moves only the keys the changed node owns.
//   - Failover: on a transport failure or node death the coordinator
//     retries on the next-ranked live node; between full passes over the
//     ranking it sleeps a capped exponential backoff with jitter,
//     honoring both the original request deadline and any Retry-After
//     hint a loaded worker returned. Workers sharing a persistent store
//     resume a retried job from whatever the dead worker acknowledged:
//     the fingerprint-keyed store hit replaces the recomputation.
//   - Degradation: an exhausted retry budget or expired deadline answers
//     a typed 503 with Retry-After — an accepted request is always
//     answered (Complete, typed Partial, or typed 503), never a hung
//     connection; only a vanished client goes unanswered.
//
// wire.go defines the JSON types of the coordinator protocol; they are
// deliberately tiny and versioned under /cluster/v1/.
package cluster

import "repro/internal/server"

// Capacity is what a worker declares at registration: its static serving
// limits, mirrored from the hltsd flags.
type Capacity struct {
	// Jobs is the number of jobs the worker runs concurrently (-jobs).
	Jobs int `json:"jobs"`
	// Workers is the worker-goroutine budget inside the node (-workers).
	Workers int `json:"workers"`
	// QueueDepth is the node's admission bound (-queue).
	QueueDepth int `json:"queue_depth"`
}

// RegisterRequest is the body of POST /cluster/v1/register.
type RegisterRequest struct {
	// ID names the node; the advertised URL doubles as the ID in practice.
	ID string `json:"id"`
	// Addr is the base URL the coordinator dispatches to, e.g.
	// "http://10.0.0.7:8080".
	Addr     string   `json:"addr"`
	Capacity Capacity `json:"capacity"`
}

// RegisterResponse acknowledges a registration and tells the agent the
// beat period the coordinator's health tracker assumes.
type RegisterResponse struct {
	Status      string `json:"status"`
	HeartbeatMS int64  `json:"heartbeat_ms"`
}

// HeartbeatRequest is the body of POST /cluster/v1/heartbeat.
type HeartbeatRequest struct {
	ID   string             `json:"id"`
	Util server.Utilization `json:"util"`
}

// NodeInfo is one row of GET /cluster/v1/nodes — the registry's view of a
// member.
type NodeInfo struct {
	ID       string             `json:"id"`
	Addr     string             `json:"addr"`
	State    string             `json:"state"`
	Capacity Capacity           `json:"capacity"`
	Util     server.Utilization `json:"util"`
	// BeatAgeMS is how long ago the last heartbeat (or registration)
	// arrived, in milliseconds.
	BeatAgeMS int64 `json:"beat_age_ms"`
}
