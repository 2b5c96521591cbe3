// Package loadgen builds the deterministic open-loop request schedules
// the repo benchmark (bench/) sends to the synthesis service. A Schedule
// is a pure function of (profile, seed, rate, requests): request arrival
// times, endpoints and bodies are fixed before the first byte goes on
// the wire, so two runs with the same options issue the identical
// request stream — which is what lets a benchmark pair, or a
// differential test, compare answer streams byte for byte.
//
// Bodies draw on the seeded benchmark generator (internal/dfggen). The
// one profile, interactive-small, issues small synthesize calls over a
// hot 32-behaviour pool, skewed toward a few popular behaviours.
package loadgen

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/dfggen"
	"repro/internal/gates"
	"repro/internal/server"
)

// ProfileInteractive names the interactive-small profile.
const ProfileInteractive = "interactive-small"

// Request is one scheduled call.
type Request struct {
	At   time.Duration // offset from run start (open-loop arrival)
	Path string        // endpoint, e.g. /v1/synthesize
	Body []byte        // JSON request body
}

// ScheduleOptions parameterizes BuildSchedule.
type ScheduleOptions struct {
	Profile string
	Seed    uint64
	// Rate is the mean arrival rate in requests/second, in (0, 1e9]: the
	// base interval must be at least 1 ns. Arrival gaps are uniformly
	// jittered in [base/2, 3*base/2) around the base interval using
	// integer arithmetic only, so the schedule is identical across
	// platforms.
	Rate float64
	// Requests is the number of requests to emit; it must be positive.
	Requests int
}

// Schedule is a fully materialized request stream.
type Schedule struct {
	Requests []Request
}

// errBadOptions wraps every ScheduleOptions rejection.
var errBadOptions = errors.New("loadgen: bad schedule options")

// rng is the splitmix64 stream the behaviour generator (dfggen) uses.
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	z := gates.SplitMix64(r.state)
	r.state += 0x9e3779b97f4a7c15
	return z
}

func (r *rng) intn(n int) int {
	if n <= 1 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// mix folds a label into a seed so the spec pool is decorrelated from the
// arrival stream.
func mix(seed uint64, label uint64) uint64 {
	return gates.SplitMix64(seed ^ (label * 0x9e3779b97f4a7c15))
}

// BuildSchedule materializes the request stream for the options. The
// result depends only on the options — never on the clock, the host or
// map order.
func BuildSchedule(o ScheduleOptions) (*Schedule, error) {
	if o.Profile != ProfileInteractive {
		return nil, fmt.Errorf("%w: unknown profile %q (want %q)", errBadOptions, o.Profile, ProfileInteractive)
	}
	// The negated comparisons also reject NaN. A rate of +Inf or above 1e9
	// would truncate the base interval to 0, the divisor of the jitter.
	interval := float64(time.Second) / o.Rate
	if !(o.Rate > 0 && interval >= 1) {
		return nil, fmt.Errorf("%w: rate %v req/s outside (0, 1e9]", errBadOptions, o.Rate)
	}
	if o.Requests <= 0 {
		return nil, fmt.Errorf("%w: requests %d, want > 0", errBadOptions, o.Requests)
	}
	base := uint64(interval)
	gen := interactiveGen(o.Seed)
	arrivals := rng{state: mix(o.Seed, 0xA881)}
	sched := &Schedule{Requests: make([]Request, o.Requests)}
	var at time.Duration
	for i := range sched.Requests {
		sched.Requests[i] = gen()
		sched.Requests[i].At = at
		at += time.Duration(base/2 + arrivals.next()%base)
	}
	return sched, nil
}

// interactiveGen: small graphs over a 32-spec pool with a popularity
// skew (the min of two uniform draws lands on the hot head ~2x as
// often as the tail).
func interactiveGen(seed uint64) func() Request {
	r := rng{state: mix(seed, 0x1A7)}
	const pool = 32
	mixes := []string{"arith", "cmp", "mixed"}
	shapes := []string{"mesh", "wide"}
	return func() Request {
		p := r.intn(pool)
		if q := r.intn(pool); q < p {
			p = q
		}
		spec := dfggen.Spec{
			Seed:  mix(seed, 0x1A70) + uint64(p),
			Ops:   8 + 4*(p%3),
			Mix:   mixes[p%len(mixes)],
			Shape: shapes[p%len(shapes)],
		}
		width := 4
		if p%2 == 1 {
			width = 8
		}
		// server request structs marshal with fixed field order, so bodies
		// are canonical.
		body, err := json.Marshal(server.SynthesizeRequest{Bench: spec.Name(), Width: width})
		if err != nil {
			panic(err) // static struct, cannot fail
		}
		return Request{Path: "/v1/synthesize", Body: body}
	}
}
