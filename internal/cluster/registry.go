// registry.go is the coordinator's membership table: which workers
// exist, how loaded they are, and whether they are believed alive. The
// liveness state machine is deliberately small:
//
//	Register  ───────────────▶ Alive
//	Alive     ── SuspectAfter without a beat, or a dispatch failure ──▶ Suspect
//	Suspect   ── a beat arrives ──▶ Alive
//	Suspect   ── DeadAfter without a beat ──▶ Dead
//	Dead      ── re-registration or a beat ──▶ Alive
//
// Dead nodes stay visible in Nodes() (operators want to see what died)
// but are excluded from placement. Time is injected so the transitions
// are unit-testable without sleeping.
package cluster

import (
	"errors"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/server"
)

// State is a node's liveness according to the health tracker.
type State int

// The liveness states.
const (
	StateAlive State = iota
	StateSuspect
	StateDead
)

// String renders the state.
func (s State) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateSuspect:
		return "suspect"
	case StateDead:
		return "dead"
	}
	return "unknown"
}

// ErrUnknownNode rejects a heartbeat from a node the registry has never
// seen (or forgot); the agent answers by re-registering.
var ErrUnknownNode = errors.New("cluster: unknown node")

// Event is one liveness transition, delivered to Watch subscribers.
type Event struct {
	ID       string
	From, To State
}

// NodeRef is the placement view of a live node.
type NodeRef struct {
	ID   string
	Addr string
}

type member struct {
	id, addr string
	capacity Capacity
	util     server.Utilization
	state    State
	lastBeat time.Time
}

// Registry is the coordinator's membership and health table. All methods
// are safe for concurrent use.
type Registry struct {
	suspectAfter time.Duration
	deadAfter    time.Duration
	now          func() time.Time

	mu       sync.Mutex
	members  map[string]*member
	watchers map[int]chan Event
	nextW    int
	closed   bool
}

// NewRegistry builds a registry. A node is Suspect after suspectAfter
// without a beat and Dead after deadAfter; now is the clock (nil =
// time.Now), injectable for deterministic tests.
func NewRegistry(suspectAfter, deadAfter time.Duration, now func() time.Time) *Registry {
	if now == nil {
		now = time.Now
	}
	if suspectAfter <= 0 {
		suspectAfter = 5 * time.Second
	}
	if deadAfter <= suspectAfter {
		deadAfter = 4 * suspectAfter
	}
	return &Registry{
		suspectAfter: suspectAfter,
		deadAfter:    deadAfter,
		now:          now,
		members:      map[string]*member{},
		watchers:     map[int]chan Event{},
	}
}

// Register upserts a node as Alive with a fresh beat. Re-registration is
// how a restarted (or previously declared dead) worker rejoins.
func (r *Registry) Register(id, addr string, c Capacity) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	m := r.members[id]
	if m == nil {
		m = &member{id: id, state: StateAlive}
		r.members[id] = m
		r.emitLocked(Event{ID: id, From: StateDead, To: StateAlive})
	} else if m.state != StateAlive {
		r.emitLocked(Event{ID: id, From: m.state, To: StateAlive})
		m.state = StateAlive
	}
	m.addr = addr
	m.capacity = c
	m.lastBeat = r.now()
}

// Heartbeat refreshes a node's beat and utilization, restoring Suspect
// and Dead nodes to Alive. An unknown node is ErrUnknownNode — the agent
// must re-register (the coordinator may have restarted and lost its
// table).
func (r *Registry) Heartbeat(id string, u server.Utilization) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.members[id]
	if m == nil {
		return ErrUnknownNode
	}
	if m.state != StateAlive {
		r.emitLocked(Event{ID: id, From: m.state, To: StateAlive})
		m.state = StateAlive
	}
	m.util = u
	m.lastBeat = r.now()
	return nil
}

// MarkSuspect demotes a node after a dispatch failure: the coordinator
// just watched a request to it fail, which is fresher evidence than the
// heartbeat clock. The next beat restores it.
func (r *Registry) MarkSuspect(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.members[id]
	if m == nil || m.state != StateAlive {
		return
	}
	m.state = StateSuspect
	r.emitLocked(Event{ID: id, From: StateAlive, To: StateSuspect})
}

// Sweep advances the liveness state machine from the beat clock and
// returns the per-state population. The coordinator's health loop calls
// it on a ticker.
func (r *Registry) Sweep() (alive, suspect, dead int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.now()
	for _, m := range r.members {
		age := now.Sub(m.lastBeat)
		next := m.state
		switch {
		case age > r.deadAfter:
			next = StateDead
		case age > r.suspectAfter && m.state == StateAlive:
			next = StateSuspect
		}
		if next != m.state {
			r.emitLocked(Event{ID: m.id, From: m.state, To: next})
			m.state = next
		}
		switch m.state {
		case StateAlive:
			alive++
		case StateSuspect:
			suspect++
		default:
			dead++
		}
	}
	return alive, suspect, dead
}

// Ranked returns the nodes to try for a fingerprint, best first: the
// Alive nodes in rendezvous order, then — only as a failover tail — the
// Suspect ones. Within the Alive group, nodes reporting a full queue are
// pushed behind the rest so a saturated shard sheds load to its
// next-ranked peer instead of bouncing 429s.
func (r *Registry) Ranked(fp core.Fingerprint) []NodeRef {
	r.mu.Lock()
	defer r.mu.Unlock()
	var alive, full, suspect []string
	for id, m := range r.members {
		switch m.state {
		case StateAlive:
			if m.capacity.QueueDepth > 0 && m.util.Queued >= m.capacity.QueueDepth {
				full = append(full, id)
			} else {
				alive = append(alive, id)
			}
		case StateSuspect:
			suspect = append(suspect, id)
		}
	}
	var out []NodeRef
	for _, group := range [][]string{alive, full, suspect} {
		for _, id := range Rank(fp, group) {
			out = append(out, NodeRef{ID: id, Addr: r.members[id].addr})
		}
	}
	return out
}

// Nodes snapshots the membership table, sorted by ID.
func (r *Registry) Nodes() []NodeInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.now()
	out := make([]NodeInfo, 0, len(r.members))
	for _, m := range r.members {
		out = append(out, NodeInfo{
			ID: m.id, Addr: m.addr, State: m.state.String(),
			Capacity: m.capacity, Util: m.util,
			BeatAgeMS: now.Sub(m.lastBeat).Milliseconds(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Watch subscribes to liveness transitions. The channel is buffered and
// lossy (a slow subscriber drops events rather than wedging the
// registry) and is closed by Close.
func (r *Registry) Watch() <-chan Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	ch := make(chan Event, 64)
	if r.closed {
		close(ch)
		return ch
	}
	r.watchers[r.nextW] = ch
	r.nextW++
	return ch
}

// Close closes every watcher channel and stops accepting registrations;
// part of the coordinator's drain path. Idempotent.
func (r *Registry) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	r.closed = true
	for id, ch := range r.watchers {
		close(ch)
		delete(r.watchers, id)
	}
}

// emitLocked fans an event out to the watchers; callers hold r.mu. The
// channels are lossy by design, but drop-oldest rather than drop-newest:
// under churn a subscriber may miss intermediate transitions, yet the
// event for a node's FINAL state is always the last one buffered —
// dropping the newest would leave a full, unread channel permanently
// describing a stale state.
func (r *Registry) emitLocked(e Event) {
	for _, ch := range r.watchers {
		select {
		case ch <- e:
		default:
			select {
			case <-ch: // evict the oldest buffered event
			default:
			}
			select {
			case ch <- e:
			default:
			}
		}
	}
}
