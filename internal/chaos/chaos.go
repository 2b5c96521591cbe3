// Package chaos is the deterministic fault-injection framework behind the
// robustness test suite: named injection sites threaded through the
// pipeline's hot paths (worker pools, guard boundaries, the ATPG campaign,
// the persistent result store, the serving and cluster layers) fire
// seeded faults — panics, typed errors, stalls, torn or bit-rotted store
// writes — so every recovery path of the execution layer can be exercised
// on demand instead of waiting for something to break naturally.
//
// The framework is dependency-free and dormant by default: every hook
// compiles down to one atomic load of a nil pointer when no injector is
// installed, so production paths pay nothing. Tests (and the hidden -chaos
// CLI hook) build an Injector, give each site a Rule, and Install it for
// the duration of a run.
//
// Determinism: the decision for the n-th hit of a site is a pure function
// of (seed, site, n). A single-worker run therefore replays an identical
// fault schedule every time; at higher worker counts the sequence of
// decisions per site is still fixed, while which logical operation
// observes the n-th hit depends on goroutine interleaving — exactly the
// nondeterminism the chaos suite is meant to stress. Within one run the
// injected faults never depend on wall-clock time or global RNG state.
package chaos

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Action is what a site does when its rule fires.
type Action int

// Actions.
const (
	// ActNone: the site does nothing (no rule, or the rule did not fire).
	ActNone Action = iota
	// ActError: the site reports a typed *chaos.Error through its ordinary
	// error return.
	ActError
	// ActPanic: the site panics with a *chaos.Panic value; the surrounding
	// guard layer is expected to recover it into an *exec.ExecError.
	ActPanic
	// ActStall: the site sleeps for the rule's Stall duration, simulating a
	// wedged worker, then proceeds normally.
	ActStall
	// ActTorn: store sites interpret a fired rule as "tear this write"
	// (write a prefix of the record and fail, the signature of a kill
	// mid-write). At generic sites it behaves like ActError.
	ActTorn
)

// String renders the action.
func (a Action) String() string {
	switch a {
	case ActNone:
		return "none"
	case ActError:
		return "error"
	case ActPanic:
		return "panic"
	case ActStall:
		return "stall"
	case ActTorn:
		return "torn"
	}
	return fmt.Sprintf("Action(%d)", int(a))
}

func parseAction(s string) (Action, error) {
	switch s {
	case "error":
		return ActError, nil
	case "panic":
		return ActPanic, nil
	case "stall":
		return ActStall, nil
	case "torn":
		return ActTorn, nil
	}
	return ActNone, fmt.Errorf("chaos: unknown action %q (want error, panic, stall or torn)", s)
}

// The named injection sites threaded through the pipeline. Each names the
// hot-path boundary where the fault is raised; the chaos sweep iterates
// Sites().
const (
	// SiteParallelClaim fires on a pool worker right after it claims a job
	// index, outside the per-job guard — a panic here exercises the
	// worker-goroutine last-resort recovery.
	SiteParallelClaim = "parallel.claim"
	// SiteParallelStall fires on a pool worker between claim and execution;
	// its natural action is ActStall (a wedged worker).
	SiteParallelStall = "parallel.stall"
	// SiteParallelJob fires inside the per-job guard of ForEachCtx pools.
	SiteParallelJob = "parallel.job"
	// SiteParallelProduce and SiteParallelCommit fire inside the guarded
	// produce/commit halves of OrderedCtx pools.
	SiteParallelProduce = "parallel.produce"
	SiteParallelCommit  = "parallel.commit"
	// SiteExecGuard fires inside every exec.Guard/Guard1 boundary, before
	// the guarded body runs.
	SiteExecGuard = "exec.guard"
	// SiteATPGFault fires at the start of one fault's deterministic PODEM
	// search, under the per-fault panic guard.
	SiteATPGFault = "atpg.fault"
	// SiteATPGBudget fires at each restart boundary of a fault's search; a
	// fired rule simulates budget exhaustion mid-batch (the fault is
	// skipped and the campaign lands Partial).
	SiteATPGBudget = "atpg.budget"
	// SiteStoreWrite, SiteStoreSync, SiteStoreTorn and SiteStoreCorrupt
	// fire inside the content-addressed result store's Put (internal/store
	// — the durability layer behind the daemon's persistent cache): a
	// failed append, a failed fsync (the bytes land but durability is not
	// confirmed, so the record is never acknowledged), a torn write (a
	// prefix of the record on disk — a kill mid-write), and bit rot (the
	// full record lands with a flipped byte, detectable only by checksum).
	SiteStoreWrite   = "store.write"
	SiteStoreSync    = "store.sync"
	SiteStoreTorn    = "store.torn"
	SiteStoreCorrupt = "store.corrupt"
	// SiteServerAccept, SiteServerEnqueue and SiteServerRespond fire in
	// the serving layer (internal/server): at request admission, just
	// before a job is pushed onto the bounded queue, and just before the
	// response body is written. An injected fault must surface to the
	// client as a typed 5xx — never a crashed daemon or a wedged
	// connection.
	SiteServerAccept  = "server.accept"
	SiteServerEnqueue = "server.enqueue"
	SiteServerRespond = "server.respond"
	// SiteClusterDispatch, SiteClusterHeartbeat and SiteClusterWorkerKill
	// fire in the cluster layer (internal/cluster). Dispatch fires on the
	// coordinator before each forward attempt — a fired rule counts as a
	// transport failure, exercising the failover-to-next-ranked-node path.
	// Heartbeat fires on the worker agent before each beat is sent — a
	// fired rule drops the beat, driving the registry's Alive -> Suspect ->
	// Dead transitions. WorkerKill fires on the worker before serving each
	// proxied request — a fired rule kills the worker abruptly mid-job (in
	// tests the listener is torn down; in hltsd the process exits), the
	// signature of a node crash with work in flight.
	SiteClusterDispatch   = "cluster.dispatch"
	SiteClusterHeartbeat  = "cluster.heartbeat"
	SiteClusterWorkerKill = "cluster.worker.kill"
	// SiteReplicateFetch and SiteReplicateApply fire in the peer-to-peer
	// store replication layer (internal/cluster.Replicator). Fetch fires
	// before each pull from a peer, simulating an unreachable or failing
	// peer; Apply fires before a pulled record is written into the local
	// store. Both feed the anti-entropy backoff path: an injected fault
	// may delay convergence, but must never fail a client request or lose
	// an acknowledged record.
	SiteReplicateFetch = "cluster.replicate.fetch"
	SiteReplicateApply = "cluster.replicate.apply"
)

// Sites lists every named injection site, sorted; the chaos sweep and the
// -chaos CLI hook validate against it.
func Sites() []string {
	s := []string{
		SiteParallelClaim, SiteParallelStall, SiteParallelJob,
		SiteParallelProduce, SiteParallelCommit,
		SiteExecGuard,
		SiteATPGFault, SiteATPGBudget,
		SiteStoreWrite, SiteStoreSync, SiteStoreTorn, SiteStoreCorrupt,
		SiteServerAccept, SiteServerEnqueue, SiteServerRespond,
		SiteClusterDispatch, SiteClusterHeartbeat, SiteClusterWorkerKill,
		SiteReplicateFetch, SiteReplicateApply,
	}
	sort.Strings(s)
	return s
}

func knownSite(site string) bool {
	for _, s := range Sites() {
		if s == site {
			return true
		}
	}
	return false
}

// Error is the typed error of an injected fault: which site fired and at
// which hit. Every chaos fault that travels an error path is one of these
// (or an *exec.ExecError wrapping a *Panic), so the chaos suite can prove
// "every surfaced error is typed".
type Error struct {
	Site string
	Seq  uint64
}

// Error renders the fault.
func (e *Error) Error() string {
	return fmt.Sprintf("chaos: injected fault at %s (hit %d)", e.Site, e.Seq)
}

// Panic is the value carried by injected panics, recognizable to the
// chaos suite after the guard layer converts it into an *exec.ExecError.
type Panic struct {
	Site string
	Seq  uint64
}

// String renders the panic value.
func (p *Panic) String() string {
	return fmt.Sprintf("chaos: injected panic at %s (hit %d)", p.Site, p.Seq)
}

// Rule configures one site of an injector.
type Rule struct {
	// Action is what the site does when the rule fires.
	Action Action
	// Prob is the per-hit firing probability in (0, 1]; 0 means 1 (fire on
	// every hit).
	Prob float64
	// Stall is the sleep of ActStall; 0 means 200µs.
	Stall time.Duration
}

type siteState struct {
	rule  Rule
	hits  atomic.Uint64
	fired atomic.Uint64
}

// Injector is a configured set of site rules under one seed. Build it with
// New + On, then Install it; it is safe for concurrent use once installed
// (the rule set is immutable after Install).
type Injector struct {
	seed      uint64
	sites     map[string]*siteState
	installed atomic.Bool
}

// New returns an empty injector with the given seed.
func New(seed int64) *Injector {
	return &Injector{seed: uint64(seed), sites: map[string]*siteState{}}
}

// On sets the rule of a site, replacing any previous rule, and returns the
// injector for chaining. It must not be called after Install. Unknown site
// names are rejected (they would silently never fire).
func (in *Injector) On(site string, r Rule) *Injector {
	if in.installed.Load() {
		panic("chaos: On called on an installed injector")
	}
	if !knownSite(site) {
		panic(fmt.Sprintf("chaos: unknown injection site %q", site))
	}
	in.sites[site] = &siteState{rule: r}
	return in
}

// Hits returns how many times the site was consulted.
func (in *Injector) Hits(site string) uint64 {
	if st := in.sites[site]; st != nil {
		return st.hits.Load()
	}
	return 0
}

// Fired returns how many times the site's rule fired.
func (in *Injector) Fired(site string) uint64 {
	if st := in.sites[site]; st != nil {
		return st.fired.Load()
	}
	return 0
}

// FiredTotal sums Fired over every configured site.
func (in *Injector) FiredTotal() uint64 {
	var n uint64
	for _, st := range in.sites {
		n += st.fired.Load()
	}
	return n
}

// at takes the site's next hit and decides: the returned action is ActNone
// when no rule is set or the rule did not fire.
func (in *Injector) at(site string) (Action, uint64, time.Duration) {
	st := in.sites[site]
	if st == nil {
		return ActNone, 0, 0
	}
	n := st.hits.Add(1)
	p := st.rule.Prob
	if p <= 0 || p > 1 {
		p = 1
	}
	if p < 1 && !decide(in.seed, site, n, p) {
		return ActNone, n, 0
	}
	st.fired.Add(1)
	stall := st.rule.Stall
	if stall <= 0 {
		stall = 200 * time.Microsecond
	}
	return st.rule.Action, n, stall
}

// decide is the seeded per-hit coin: a pure function of (seed, site, n).
func decide(seed uint64, site string, n uint64, p float64) bool {
	h := fnv.New64a()
	h.Write([]byte(site))
	x := splitmix64(seed ^ h.Sum64() ^ (n * 0x9e3779b97f4a7c15))
	// Top 53 bits as a uniform float in [0, 1).
	u := float64(x>>11) / float64(1<<53)
	return u < p
}

// splitmix64 is the standard finalizing mix (Steele et al.), enough to
// decorrelate consecutive hit indices.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// active is the installed injector; nil means chaos is dormant and every
// hook is a single atomic load.
var active atomic.Pointer[Injector]

// Install activates the injector process-wide and returns a restore
// function that deactivates it (reinstalling whatever was active before —
// in practice nil). Tests must call restore before finishing; installing
// over an already-installed injector panics, which catches chaos tests
// accidentally running in parallel with each other.
func Install(in *Injector) (restore func()) {
	in.installed.Store(true)
	if !active.CompareAndSwap(nil, in) {
		panic("chaos: an injector is already installed")
	}
	return func() { active.Store(nil) }
}

// Active returns the installed injector, or nil when chaos is dormant.
func Active() *Injector { return active.Load() }

// Step is the generic injection hook placed at a named site: it returns
// nil when dormant or when the site's rule does not fire; otherwise it
// panics (ActPanic), sleeps then returns nil (ActStall), or returns a
// typed *Error (ActError, ActTorn).
func Step(site string) error {
	in := active.Load()
	if in == nil {
		return nil
	}
	act, n, stall := in.at(site)
	switch act {
	case ActPanic:
		panic(&Panic{Site: site, Seq: n})
	case ActStall:
		time.Sleep(stall)
	case ActError, ActTorn:
		return &Error{Site: site, Seq: n}
	}
	return nil
}

// Fire is the hook for sites that implement the fault themselves (the
// torn-write and bit-rot paths of the result store): it reports whether the
// site's rule fired this hit and hands back the typed error the caller
// should propagate after acting. No action is taken by Fire itself.
func Fire(site string) (error, bool) {
	in := active.Load()
	if in == nil {
		return nil, false
	}
	act, n, _ := in.at(site)
	if act == ActNone {
		return nil, false
	}
	return &Error{Site: site, Seq: n}, true
}

// Parse builds an injector from a CLI spec — the hidden -chaos test hook:
//
//	seed=7;parallel.produce=panic:0.3;store.sync=error
//
// Entries are ';'-separated. "seed=N" sets the seed (default 1); every
// other entry is site=action[:prob], with prob in (0,1] defaulting to 1.
func Parse(spec string) (*Injector, error) {
	seed := int64(1)
	type entry struct {
		site string
		rule Rule
	}
	var entries []entry
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("chaos: bad spec entry %q (want site=action[:prob])", part)
		}
		if k == "seed" {
			s, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("chaos: bad seed %q", v)
			}
			seed = s
			continue
		}
		if !knownSite(k) {
			return nil, fmt.Errorf("chaos: unknown site %q (known: %s)", k, strings.Join(Sites(), ", "))
		}
		actStr, probStr, hasProb := strings.Cut(v, ":")
		act, err := parseAction(actStr)
		if err != nil {
			return nil, err
		}
		r := Rule{Action: act}
		if hasProb {
			p, err := strconv.ParseFloat(probStr, 64)
			if err != nil || p <= 0 || p > 1 {
				return nil, fmt.Errorf("chaos: bad probability %q (want (0,1])", probStr)
			}
			r.Prob = p
		}
		entries = append(entries, entry{k, r})
	}
	in := New(seed)
	for _, e := range entries {
		in.On(e.site, e.rule)
	}
	return in, nil
}
