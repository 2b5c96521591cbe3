package loadgen

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/server"
)

func TestBuildScheduleDeterministic(t *testing.T) {
	opts := ScheduleOptions{Profile: ProfileInteractive, Seed: 7, Rate: 50, Requests: 100}
	a, err := BuildSchedule(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildSchedule(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("two builds of the same options differ")
	}
}

// TestScheduleGolden pins the exact request streams bench/ sends with a
// checksum over (arrival, path, body) — the cross-platform
// reproducibility contract: serve-hot and cluster-mixed offer the same
// request bytes on every host and every commit that keeps these values.
func TestScheduleGolden(t *testing.T) {
	for _, c := range []struct {
		name     string
		rate     float64
		requests int
		want     uint64
	}{
		{"serve-hot", 200, 4000, 0xd95da96c7a544dec},
		{"cluster-mixed", 6, 120, 0xc903ee7a034543b7},
	} {
		s, err := BuildSchedule(ScheduleOptions{Profile: ProfileInteractive, Seed: 1, Rate: c.rate, Requests: c.requests})
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		for _, r := range s.Requests {
			fmt.Fprintf(h, "%d|%s|%s\n", r.At.Nanoseconds(), r.Path, r.Body)
		}
		if got := h.Sum64(); got != c.want {
			t.Errorf("%s: schedule checksum %#016x, want %#016x (first req: %+v)", c.name, got, c.want, s.Requests[0])
		}
	}
}

func TestScheduleRequestCountMode(t *testing.T) {
	for _, n := range []int{1, 48, 4000} {
		s, err := BuildSchedule(ScheduleOptions{Profile: ProfileInteractive, Seed: 3, Rate: 200, Requests: n})
		if err != nil {
			t.Fatal(err)
		}
		if len(s.Requests) != n {
			t.Errorf("got %d requests, want %d", len(s.Requests), n)
		}
	}
}

func TestScheduleArrivalsMonotone(t *testing.T) {
	const n = 60
	s, err := BuildSchedule(ScheduleOptions{Profile: ProfileInteractive, Seed: 1, Rate: 20, Requests: n})
	if err != nil {
		t.Fatal(err)
	}
	base := time.Second / 20
	if s.Requests[0].At != 0 {
		t.Errorf("first arrival at %v, want 0", s.Requests[0].At)
	}
	for i := 1; i < n; i++ {
		gap := s.Requests[i].At - s.Requests[i-1].At
		if gap < base/2 || gap >= base+base/2 {
			t.Fatalf("gap %d = %v outside [base/2, 3base/2) for base %v", i, gap, base)
		}
	}
	// 59 gaps jittered symmetrically around 50 ms: the last arrival lands
	// near 2.95 s.
	if last := s.Requests[n-1].At; last < 2500*time.Millisecond || last > 3400*time.Millisecond {
		t.Errorf("last of %d arrivals at 20 rps is at %v", n, last)
	}
}

func TestProfileProperties(t *testing.T) {
	s, err := BuildSchedule(ScheduleOptions{Profile: ProfileInteractive, Seed: 11, Rate: 100, Requests: 200})
	if err != nil {
		t.Fatal(err)
	}
	bodies := map[string]bool{}
	for _, r := range s.Requests {
		if r.Path != "/v1/synthesize" {
			t.Fatalf("path %q, want /v1/synthesize", r.Path)
		}
		bodies[string(r.Body)] = true
	}
	if len(bodies) > 32 {
		t.Errorf("%d unique bodies, want <= 32 (pool size)", len(bodies))
	}
	// Every generated bench name must parse and load.
	for body := range bodies {
		var req server.SynthesizeRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatalf("body not a synthesize request: %v", err)
		}
		if _, err := req.Normalize(); err != nil {
			t.Errorf("request does not normalize: %v (%s)", err, body)
		}
	}
}

func TestBuildScheduleErrors(t *testing.T) {
	ok := ScheduleOptions{Profile: ProfileInteractive, Seed: 1, Rate: 6, Requests: 3}
	for _, c := range []struct {
		name string
		edit func(*ScheduleOptions)
	}{
		{"unknown profile", func(o *ScheduleOptions) { o.Profile = "nope" }},
		{"deleted profile", func(o *ScheduleOptions) { o.Profile = "mixed" }},
		{"zero rate", func(o *ScheduleOptions) { o.Rate = 0 }},
		{"negative rate", func(o *ScheduleOptions) { o.Rate = -1 }},
		{"NaN rate", func(o *ScheduleOptions) { o.Rate = math.NaN() }},
		{"+Inf rate", func(o *ScheduleOptions) { o.Rate = math.Inf(1) }},
		{"-Inf rate", func(o *ScheduleOptions) { o.Rate = math.Inf(-1) }},
		// Used to panic with an integer divide by zero: the base interval
		// truncated to 0 ns.
		{"sub-ns interval", func(o *ScheduleOptions) { o.Rate = 2e9 }},
		{"zero requests", func(o *ScheduleOptions) { o.Requests = 0 }},
		{"negative requests", func(o *ScheduleOptions) { o.Requests = -1 }},
	} {
		o := ok
		c.edit(&o)
		if s, err := BuildSchedule(o); !errors.Is(err, errBadOptions) {
			t.Errorf("%s: BuildSchedule(%+v) = %v, %v; want errBadOptions", c.name, o, s, err)
		}
	}
	// The fastest accepted rate: a 1 ns base interval.
	ok.Rate = 1e9
	if _, err := BuildSchedule(ok); err != nil {
		t.Errorf("rate 1e9: %v", err)
	}
}
