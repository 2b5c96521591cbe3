package cluster

import (
	"sync"
	"testing"
	"time"

	"repro/internal/core"

	"repro/internal/server"
)

// fakeClock is an injectable, manually-advanced clock so the liveness
// state machine is tested without sleeping.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

func states(r *Registry) map[string]string {
	out := map[string]string{}
	for _, n := range r.Nodes() {
		out[n.ID] = n.State
	}
	return out
}

// TestRegistryLifecycle walks a node through the full state machine:
// Alive -> Suspect after suspectAfter of silence -> Dead after deadAfter
// -> Alive again on a beat.
func TestRegistryLifecycle(t *testing.T) {
	clk := newFakeClock()
	r := NewRegistry(100*time.Millisecond, 400*time.Millisecond, clk.Now)

	r.Register("a", "http://a", Capacity{Jobs: 2})
	if alive, _, _ := r.Sweep(); alive != 1 {
		t.Fatalf("registered node not alive")
	}

	clk.Advance(150 * time.Millisecond)
	if _, suspect, _ := r.Sweep(); suspect != 1 {
		t.Fatalf("node not suspect after suspectAfter: %v", states(r))
	}

	// A beat restores it.
	if err := r.Heartbeat("a", server.Utilization{Queued: 1}); err != nil {
		t.Fatalf("heartbeat: %v", err)
	}
	if alive, _, _ := r.Sweep(); alive != 1 {
		t.Fatalf("beat did not restore node: %v", states(r))
	}

	// Silence past deadAfter: Dead, visible in Nodes but unroutable.
	clk.Advance(450 * time.Millisecond)
	if _, _, dead := r.Sweep(); dead != 1 {
		t.Fatalf("node not dead after deadAfter: %v", states(r))
	}
	if n := r.Ranked(core.Fingerprint{}); len(n) != 0 {
		t.Fatalf("dead node still routable: %v", n)
	}
	if len(r.Nodes()) != 1 {
		t.Fatalf("dead node vanished from Nodes()")
	}

	// A beat resurrects even a Dead node (the worker was partitioned, not
	// crashed).
	if err := r.Heartbeat("a", server.Utilization{}); err != nil {
		t.Fatalf("heartbeat after death: %v", err)
	}
	if alive, _, _ := r.Sweep(); alive != 1 {
		t.Fatalf("beat did not resurrect node: %v", states(r))
	}
}

func TestRegistryUnknownHeartbeat(t *testing.T) {
	r := NewRegistry(time.Second, 4*time.Second, newFakeClock().Now)
	if err := r.Heartbeat("ghost", server.Utilization{}); err != ErrUnknownNode {
		t.Fatalf("heartbeat from unknown node: got %v, want ErrUnknownNode", err)
	}
}

// TestRegistryMarkSuspect: a dispatch failure demotes an Alive node
// immediately; the next beat restores it. MarkSuspect never promotes.
func TestRegistryMarkSuspect(t *testing.T) {
	clk := newFakeClock()
	r := NewRegistry(time.Second, 4*time.Second, clk.Now)
	r.Register("a", "http://a", Capacity{})
	r.MarkSuspect("a")
	if _, suspect, _ := r.Sweep(); suspect != 1 {
		t.Fatalf("MarkSuspect did not demote: %v", states(r))
	}
	// Dead node is untouched by MarkSuspect.
	clk.Advance(5 * time.Second)
	r.Sweep()
	r.MarkSuspect("a")
	if _, _, dead := r.Sweep(); dead != 1 {
		t.Fatalf("MarkSuspect changed a dead node: %v", states(r))
	}
	r.MarkSuspect("ghost") // unknown node: no-op, no panic
}

// TestRegistryRankedGroups: Alive nodes rank ahead of full-queue nodes,
// which rank ahead of Suspect ones; Dead nodes are absent.
func TestRegistryRankedGroups(t *testing.T) {
	clk := newFakeClock()
	r := NewRegistry(time.Second, 4*time.Second, clk.Now)
	// "dead" registers first and ages past deadAfter; the rest register
	// fresh afterwards so the sweep only kills it.
	r.Register("dead", "http://dead", Capacity{QueueDepth: 8})
	clk.Advance(5 * time.Second)
	r.Register("alive", "http://alive", Capacity{QueueDepth: 8})
	r.Register("full", "http://full", Capacity{QueueDepth: 8})
	r.Register("sus", "http://sus", Capacity{QueueDepth: 8})

	if err := r.Heartbeat("full", server.Utilization{Queued: 8}); err != nil {
		t.Fatal(err)
	}
	r.MarkSuspect("sus")
	r.Sweep()

	got := r.Ranked(core.Fingerprint{0x42})
	if len(got) != 3 {
		t.Fatalf("Ranked returned %d nodes, want 3 (dead excluded): %v", len(got), got)
	}
	if got[0].ID != "alive" || got[1].ID != "full" {
		t.Errorf("ranking order wrong: %v (want alive, full, ...)", got)
	}
	sawSus := false
	for _, n := range got {
		if n.ID == "sus" {
			sawSus = true
		}
		if n.ID == "dead" {
			t.Errorf("dead node in ranking: %v", got)
		}
	}
	if !sawSus {
		t.Errorf("suspect node missing from failover tail: %v", got)
	}
}

// TestRegistryWatch: transitions fan out to watchers; Close closes the
// channels and is idempotent; post-Close Watch returns a closed channel.
func TestRegistryWatch(t *testing.T) {
	clk := newFakeClock()
	r := NewRegistry(100*time.Millisecond, 400*time.Millisecond, clk.Now)
	ch := r.Watch()

	r.Register("a", "http://a", Capacity{})
	clk.Advance(150 * time.Millisecond)
	r.Sweep()

	want := []Event{
		{ID: "a", From: StateDead, To: StateAlive},
		{ID: "a", From: StateAlive, To: StateSuspect},
	}
	for i, w := range want {
		select {
		case e := <-ch:
			if e != w {
				t.Fatalf("event %d: got %+v, want %+v", i, e, w)
			}
		case <-time.After(time.Second):
			t.Fatalf("event %d never arrived", i)
		}
	}

	r.Close()
	r.Close() // idempotent
	if _, open := <-ch; open {
		t.Fatal("watcher channel not closed by Close")
	}
	if _, open := <-r.Watch(); open {
		t.Fatal("post-Close Watch returned an open channel")
	}
	// Registrations after Close are refused.
	r.Register("b", "http://b", Capacity{})
	if len(r.Nodes()) != 1 {
		t.Fatal("Register accepted after Close")
	}
}

// TestDeadAfterRule: Config.fill owns the dead-node timeout. Left unset it
// is 10 beats, or 4K beats once the suspect window K reaches 10; an
// explicit value is kept only above the suspect window, never replaced.
func TestDeadAfterRule(t *testing.T) {
	const beat = 2 * time.Second
	for _, tc := range []struct {
		k         int
		deadAfter time.Duration
		want      time.Duration // 0: fill must refuse the config
	}{
		{3, 0, 10 * beat},
		{9, 0, 10 * beat},
		{10, 0, 40 * beat},
		{12, 0, 48 * beat},
		{3, 5 * time.Second, 0},
		{3, 3 * beat, 0},
		{3, 3*beat + 1, 3*beat + 1},
		{12, 10 * time.Minute, 10 * time.Minute},
	} {
		cfg := Config{HeartbeatInterval: beat, SuspectBeats: tc.k, DeadAfter: tc.deadAfter}
		err := cfg.fill()
		switch {
		case tc.want == 0 && err == nil:
			t.Errorf("K=%d dead-after %v: accepted as %v, want an error", tc.k, tc.deadAfter, cfg.DeadAfter)
		case tc.want != 0 && err != nil:
			t.Errorf("K=%d dead-after %v: %v", tc.k, tc.deadAfter, err)
		case tc.want != 0 && cfg.DeadAfter != tc.want:
			t.Errorf("K=%d dead-after %v: filled to %v, want %v", tc.k, tc.deadAfter, cfg.DeadAfter, tc.want)
		}
	}
}
