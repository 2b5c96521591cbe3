// Package stats is the per-stage observability layer of the synthesis
// system: a small, concurrency-safe registry of named counters and
// timers that the hot paths report into — candidate evaluations, cache
// hits and misses, and the wall-clock time spent in list
// scheduling, floorplanning and testability analysis. A nil *Stats is a valid no-op collector, so call sites
// record unconditionally and pay one nil check when observability is
// off.
//
// Counters and timers never influence results: they are written behind
// a mutex, read only by reporting code, and carry no algorithmic state.
package stats

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Stats is a set of named counters, timers and latency histograms. The
// zero value is not usable; construct with New. All methods are safe for
// concurrent use and are no-ops on a nil receiver.
type Stats struct {
	mu       sync.Mutex
	counters map[string]int64
	timers   map[string]time.Duration
	hists    map[string]*histogram
	gauges   map[string]float64
}

// New returns an empty collector.
func New() *Stats {
	return &Stats{
		counters: map[string]int64{},
		timers:   map[string]time.Duration{},
		hists:    map[string]*histogram{},
		gauges:   map[string]float64{},
	}
}

// Add increments the named counter by delta.
func (s *Stats) Add(name string, delta int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.counters[name] += delta
	s.mu.Unlock()
}

// Since adds the wall-clock time elapsed since start to the named timer:
//
//	start := time.Now()
//	...
//	s.Since("time.floorplan", start)
func (s *Stats) Since(name string, start time.Time) {
	if s == nil {
		return
	}
	d := time.Since(start)
	s.mu.Lock()
	s.timers[name] += d
	s.mu.Unlock()
}

// Set records the current value of a gauge — a level that can move both
// ways (live node counts, queue depths), unlike the monotonic counters.
func (s *Stats) Set(name string, v float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.gauges[name] = v
	s.mu.Unlock()
}

// Gauge returns the current value of a gauge (0 if never set).
func (s *Stats) Gauge(name string) float64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gauges[name]
}

// Value returns the current value of a counter (0 if never written).
func (s *Stats) Value(name string) int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counters[name]
}

// Duration returns the accumulated time of a timer (0 if never written).
func (s *Stats) Duration(name string) time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.timers[name]
}

// HitRate returns hits/(hits+misses) for the cache counter pair
// "<prefix>.hit" / "<prefix>.miss", or 0 when the cache was never
// consulted.
func (s *Stats) HitRate(prefix string) float64 {
	hits := s.Value(prefix + ".hit")
	misses := s.Value(prefix + ".miss")
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// histBounds are the upper bucket bounds (seconds) of every latency
// histogram: Prometheus' default buckets from 1 ms up, below them six
// sub-millisecond bounds from 10 µs. They span ~20 µs cache hits to
// multi-second table reproductions.
var histBounds = [...]float64{
	0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005,
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// histogram is a fixed-bucket latency histogram. counts[i] is the number
// of observations ≤ histBounds[i]; observations above the last bound land
// in the final slot (the +Inf bucket of the exposition).
type histogram struct {
	counts [len(histBounds) + 1]uint64 // last slot is +Inf
	sum    float64
	count  uint64
}

// Observe records one observation (in seconds) into the named histogram.
func (s *Stats) Observe(name string, v float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	h := s.hists[name]
	if h == nil {
		h = &histogram{}
		s.hists[name] = h
	}
	i := sort.SearchFloat64s(histBounds[:], v)
	h.counts[i]++
	h.sum += v
	h.count++
	s.mu.Unlock()
}

// ObserveSince records the time elapsed since start into the named
// histogram, in seconds.
func (s *Stats) ObserveSince(name string, start time.Time) {
	s.Observe(name, time.Since(start).Seconds())
}

// metricName sanitizes a stats name into a Prometheus metric name:
// every character outside [a-zA-Z0-9_] becomes '_' and the result is
// prefixed "hlts_".
func metricName(name string) string {
	var b strings.Builder
	b.WriteString("hlts_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// fmtFloat renders a float the way the Prometheus text format expects:
// shortest representation that round-trips.
func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WriteText renders the collector in the Prometheus text exposition
// format: counters, then timers (as *_seconds gauges), then histograms,
// then the *.hit/*.miss hit-rate gauges, each group sorted by name — the
// output is byte-stable for a given collector state. It backs the
// daemon's /metrics endpoint and the CLIs' -stats dump.
func (s *Stats) WriteText(w io.Writer) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	counters := make(map[string]int64, len(s.counters))
	for k, v := range s.counters {
		counters[k] = v
	}
	timers := make(map[string]time.Duration, len(s.timers))
	for k, v := range s.timers {
		timers[k] = v
	}
	gauges := make(map[string]float64, len(s.gauges))
	for k, v := range s.gauges {
		gauges[k] = v
	}
	hists := make(map[string]histogram, len(s.hists))
	for k, h := range s.hists {
		hists[k] = *h
	}
	s.mu.Unlock()

	var b strings.Builder
	for _, k := range sortedKeys(counters) {
		m := metricName(k)
		fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", m, m, counters[k])
	}
	for _, k := range sortedKeys(timers) {
		m := metricName(k) + "_seconds"
		fmt.Fprintf(&b, "# TYPE %s gauge\n%s %s\n", m, m, fmtFloat(timers[k].Seconds()))
	}
	for _, k := range sortedKeys(gauges) {
		m := metricName(k)
		fmt.Fprintf(&b, "# TYPE %s gauge\n%s %s\n", m, m, fmtFloat(gauges[k]))
	}
	for _, k := range sortedKeys(hists) {
		h := hists[k]
		m := metricName(k) + "_seconds"
		fmt.Fprintf(&b, "# TYPE %s histogram\n", m)
		var cum uint64
		for i, bound := range histBounds {
			cum += h.counts[i]
			fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", m, fmtFloat(bound), cum)
		}
		fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", m, h.count)
		fmt.Fprintf(&b, "%s_sum %s\n", m, fmtFloat(h.sum))
		fmt.Fprintf(&b, "%s_count %d\n", m, h.count)
	}
	// Hit-rate gauges for every .hit/.miss counter pair.
	seen := map[string]bool{}
	var prefixes []string
	for k := range counters {
		for _, suffix := range []string{".hit", ".miss"} {
			if p, ok := strings.CutSuffix(k, suffix); ok && !seen[p] {
				seen[p] = true
				prefixes = append(prefixes, p)
			}
		}
	}
	sort.Strings(prefixes)
	for _, p := range prefixes {
		hits, misses := counters[p+".hit"], counters[p+".miss"]
		rate := 0.0
		if hits+misses > 0 {
			rate = float64(hits) / float64(hits+misses)
		}
		m := metricName(p) + "_hitrate"
		fmt.Fprintf(&b, "# TYPE %s gauge\n%s %s\n", m, m, fmtFloat(rate))
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// sortedKeys returns the keys of a map in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
