// trace.go records the traced run's spans: one root per replayed request
// (or per check or probe), one child per call into a layer. Spans stay in
// memory and are written to trace.json when the run ends.
package main

import (
	"sort"
	"strings"
	"time"
)

// Root span kinds. Request roots replay what the daemon did for a
// request and are the only ones layer shares and attribution count;
// check roots recompute references and run the oracles; probe roots time
// one layer call in isolation.
const (
	kindRequest = "request"
	kindCheck   = "check"
	kindProbe   = "probe"
)

type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // -1 for a root
	Name    string  `json:"name"`
	Kind    string  `json:"kind,omitempty"` // roots only
	Req     int     `json:"req"`            // index of the replayed request; -1 if none
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
	SelfUS  float64 `json:"self_us"`

	start, end, self time.Duration
}

func (s *span) dur() time.Duration { return s.end - s.start }

// layer is the span name up to its first dot: "core.synth" is core's.
func (s *span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// root opens a root span of the given kind for replayed request req.
func (t *tracer) root(kind, name string, req int) int {
	id := t.begin(-1, name)
	t.spans[id].Kind, t.spans[id].Req = kind, req
	return id
}

func (t *tracer) begin(parent int, name string) int {
	req := -1
	if parent >= 0 {
		req = t.spans[parent].Req
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Req: req, start: time.Since(t.t0)})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].end = time.Since(t.t0) }

// do runs fn inside a child span of parent and returns the span id.
func (t *tracer) do(parent int, name string, fn func() error) (int, error) {
	id := t.begin(parent, name)
	err := fn()
	t.end(id)
	return id, err
}

// finish computes every span's self time and the exported timings.
func (t *tracer) finish() {
	self := selfTimes(t.spans)
	for i := range t.spans {
		s := &t.spans[i]
		s.StartUS = float64(s.start) / 1e3
		s.DurUS = float64(s.dur()) / 1e3
		s.self = self[i]
		s.SelfUS = float64(s.self) / 1e3
	}
}

// selfTimes returns each span's duration minus the part of its interval
// that its child spans cover (overlapping children count once).
func selfTimes(spans []span) []time.Duration {
	kids := map[int][][2]time.Duration{}
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]time.Duration{s.start, s.end})
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		iv := kids[i]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered time.Duration
		cur := s.start // covered up to here
		for _, c := range iv {
			lo, hi := max(c[0], cur), min(c[1], s.end)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[i] = s.dur() - covered
	}
	return out
}

// layerSelf sums the self time of root's descendants by layer.
func layerSelf(spans []span, root int) map[string]time.Duration {
	out := map[string]time.Duration{}
	in := map[int]bool{root: true}
	for i := root + 1; i < len(spans); i++ { // children always follow their parent
		s := &spans[i]
		if !in[s.Parent] {
			continue
		}
		in[i] = true
		out[s.layer()] += s.self
	}
	return out
}

// traceOut is one workload's trace.json entry.
type traceOut struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	// Shares is the fraction of request-root time each layer costs, per
	// endpoint.
	Shares map[string]map[string]float64 `json:"shares"`
	Spans  []span                        `json:"spans"`
}
