package core

import (
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/bits"
	"sync"

	"repro/internal/cost"
	"repro/internal/dfg"
	"repro/internal/stats"
	"repro/internal/testability"
)

// Fingerprint is a 128-bit canonical FNV-128a fingerprint, stable across
// processes and runs. The evaluation cache keys a state's (schedule,
// allocation) pair on it, and the serving layer (internal/server) keys
// request coalescing and its result cache on it, so a request fingerprint
// inherits the cache's collision and determinism arguments. 128 bits keep
// the collision probability negligible over the thousands of states a
// synthesis run evaluates (a 64-bit key would already need ~2^32 entries
// for a likely collision, but the cache trades a few bytes for not having
// to reason about it at all).
type Fingerprint [16]byte

// String renders the fingerprint as lowercase hex.
func (f Fingerprint) String() string { return hex.EncodeToString(f[:]) }

// Hasher is the one canonical encoder behind every fingerprint: a
// byte-order-pinned FNV-128a accumulator with length-prefixed strings.
// Callers write every result-affecting field in a fixed order and take
// Sum; equal sums then imply bit-identical computations. FNV is
// deterministic across processes (unlike maphash). The 128-bit state is
// kept inline as (hi, lo) and multiplied by the FNV-128 prime, 2^88 +
// 0x13b, with one bits.Mul64 per byte: no hash.Hash interface call and no
// staging buffer per int. The bytes it produces are exactly those of
// hash/fnv.New128a.
type Hasher struct{ hi, lo uint64 }

const (
	fnv128OffsetHi = 0x6c62272e07bb0142
	fnv128OffsetLo = 0x62b821756295c58d
	fnv128PrimeLo  = 0x13b
	fnv128Shift    = 24 // 2^88 = 2^64 · 2^24
)

// NewHasher returns an empty canonical encoder.
func NewHasher() *Hasher { return &Hasher{hi: fnv128OffsetHi, lo: fnv128OffsetLo} }

func (h *Hasher) byte(b byte) {
	h.lo ^= uint64(b)
	hi, lo := bits.Mul64(h.lo, fnv128PrimeLo)
	h.hi = hi + h.lo<<fnv128Shift + h.hi*fnv128PrimeLo
	h.lo = lo
}

// U64 writes a uint64 in little-endian order.
func (h *Hasher) U64(v uint64) {
	for i := 0; i < 8; i++ {
		h.byte(byte(v >> (8 * i)))
	}
}

// Int writes an int (sign-extended through int64).
func (h *Hasher) Int(v int) { h.U64(uint64(int64(v))) }

// Str writes a length-prefixed string.
func (h *Hasher) Str(s string) {
	h.Int(len(s))
	for i := 0; i < len(s); i++ {
		h.byte(s[i])
	}
}

// F64 writes a float64 by its IEEE 754 bit pattern.
func (h *Hasher) F64(v float64) { h.U64(math.Float64bits(v)) }

// Sum finalizes the encoding.
func (h *Hasher) Sum() Fingerprint {
	var out Fingerprint
	binary.BigEndian.PutUint64(out[:8], h.hi)
	binary.BigEndian.PutUint64(out[8:], h.lo)
	return out
}

// stateFingerprint canonically hashes the (schedule, allocation) pair
// of a state. Everything the derived artifacts depend on — the ETPN
// design, its execution time, floorplan area and testability metrics —
// is a pure function of this pair (plus the per-run constants held by
// the cache: the behaviour graph, bit width, library, loop signal,
// testability config), so two states with equal fingerprints have
// bit-identical evaluations. Precedence arcs are deliberately excluded:
// they constrain future rescheduling but leave the current design
// untouched, so states reached through different arc histories still
// share cache entries. It allocates nothing: the Hasher stays on the
// stack.
func stateFingerprint(st *state) Fingerprint {
	h := NewHasher()
	h.Str("sched")
	h.Int(st.s.Len)
	nn := st.g.NumNodes()
	for i := 0; i < nn; i++ {
		h.Int(st.s.Step[dfg.NodeID(i)])
	}
	h.Str("mods")
	h.Int(len(st.a.Modules))
	for _, m := range st.a.Modules {
		h.Str(m.Class)
		h.Int(len(m.Ops))
		for _, op := range m.Ops {
			h.Int(int(op))
		}
	}
	h.Str("regs")
	h.Int(len(st.a.Regs))
	for _, r := range st.a.Regs {
		h.Int(len(r.Vals))
		for _, v := range r.Vals {
			h.Int(int(v))
		}
	}
	return h.Sum()
}

// Graph writes a canonical encoding of a behaviour graph: name, width,
// then every node (label, kind, operands, result) and every value (name,
// kind, constant, output flag) in id order. Two graphs with equal
// encodings are structurally identical, so every synthesis stage treats
// them identically.
func (h *Hasher) Graph(g *dfg.Graph) {
	h.Str("graph")
	h.Str(g.Name)
	h.Int(g.Width)
	nodes := g.Nodes()
	h.Int(len(nodes))
	for _, n := range nodes {
		h.Str(n.Name)
		h.Int(int(n.Kind))
		h.Int(len(n.In))
		for _, v := range n.In {
			h.Int(int(v))
		}
		h.Int(int(n.Out))
	}
	vals := g.Values()
	h.Int(len(vals))
	for _, v := range vals {
		h.Str(v.Name)
		h.Int(int(v.Kind))
		h.U64(uint64(v.Const))
		if v.IsOutput {
			h.Int(1)
		} else {
			h.Int(0)
		}
	}
}

// Params writes the result-affecting fields of a Params: the algorithm
// knobs (K, α, β, slack, width, loop signal, policy selectors) but none
// of the operational ones (Workers, Stats, NoCache — all of which are
// contracted to never change results). Three slots hold constants so
// that stored fingerprints keep their bytes: the loop bound (always
// LoopBound), a retired policy switch, and the modules-only switch
// (always 0: it is CAMAD's own rule, implied by the method every request
// fingerprint hashes). A caller supplying a custom Lib is outside this
// encoding and must not share fingerprints across different ones; the
// server only ever uses the default.
func (h *Hasher) Params(p Params) {
	h.Str("params")
	h.Int(p.K)
	h.F64(p.Alpha)
	h.F64(p.Beta)
	h.Int(p.Slack)
	h.Int(p.Width)
	h.Int(LoopBound)
	h.Str(p.LoopSignal)
	h.Int(int(p.Selection))
	h.Int(int(p.Reschedule))
	h.Int(0) // a retired policy switch
	h.Int(0) // modules-only: CAMAD's own rule, never a request field
}

// buildEntry is a memoized state evaluation: the two cost figures of the
// state's design.
type buildEntry struct {
	exec int
	area cost.Estimate
}

// analysis is a memoized testability evaluation of a state's design: the
// metrics, and the mean register sequential depth applyRegMerge compares,
// so that a hit needs no design at all.
type analysis struct {
	m        *testability.Metrics
	regDepth float64
}

// evalCache memoizes the expensive stages of the merger loop, keyed by
// canonical fingerprints, so identical designs reached by different tie
// policies or candidate orders are costed once. One cache is shared by
// all four tie-policy explorations of a SynthesizeCtx call (the per-run
// constants — graph, width, library, loop parameters, testability
// config — are identical across them); a mutex makes it safe under the
// fan-out. Cached values are pure functions of their keys, so a hit
// returns bit-identical data to a recomputation and results never
// depend on cache state, sharing, or worker count.
type evalCache struct {
	stats *stats.Stats

	mu      sync.Mutex
	builds  map[Fingerprint]buildEntry
	metrics map[Fingerprint]analysis
}

// newEvalCache returns the cache for one SynthesizeCtx call, or nil when
// par disables caching; a nil *evalCache is inert at every call site.
func newEvalCache(par Params) *evalCache {
	if par.NoCache {
		return nil
	}
	return &evalCache{
		stats:   par.Stats,
		builds:  map[Fingerprint]buildEntry{},
		metrics: map[Fingerprint]analysis{},
	}
}

func (c *evalCache) enabled() bool { return c != nil }

func (c *evalCache) lookupBuild(key Fingerprint) (buildEntry, bool) {
	if c == nil {
		return buildEntry{}, false
	}
	c.mu.Lock()
	e, ok := c.builds[key]
	c.mu.Unlock()
	c.record("cache.build.hit", "cache.build.miss", ok)
	return e, ok
}

func (c *evalCache) storeBuild(key Fingerprint, e buildEntry) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.builds[key] = e
	c.mu.Unlock()
}

func (c *evalCache) lookupMetrics(key Fingerprint) (analysis, bool) {
	if c == nil {
		return analysis{}, false
	}
	c.mu.Lock()
	e, ok := c.metrics[key]
	c.mu.Unlock()
	c.record("cache.metrics.hit", "cache.metrics.miss", ok)
	return e, ok
}

func (c *evalCache) storeMetrics(key Fingerprint, e analysis) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.metrics[key] = e
	c.mu.Unlock()
}

// record counts a lookup under the hit or the miss counter; the names are
// passed whole so that counting allocates nothing.
func (c *evalCache) record(hitName, missName string, hit bool) {
	if c == nil {
		return
	}
	if hit {
		c.stats.Add(hitName, 1)
	} else {
		c.stats.Add(missName, 1)
	}
}
