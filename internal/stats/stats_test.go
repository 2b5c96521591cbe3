package stats

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCountersAndTimers(t *testing.T) {
	s := New()
	s.Add("cache.build.hit", 3)
	s.Add("cache.build.miss", 1)
	s.Add("cache.build.hit", 1)
	if got := s.Value("cache.build.hit"); got != 4 {
		t.Errorf("hit = %d, want 4", got)
	}
	if got := s.Value("never.written"); got != 0 {
		t.Errorf("unwritten counter = %d, want 0", got)
	}
	if r := s.HitRate("cache.build"); r != 0.8 {
		t.Errorf("hit rate = %f, want 0.8", r)
	}
	if r := s.HitRate("never.consulted"); r != 0 {
		t.Errorf("unconsulted hit rate = %f, want 0", r)
	}
	stop := s.Time("time.x")
	time.Sleep(time.Millisecond)
	stop()
	if s.Duration("time.x") <= 0 {
		t.Error("timer recorded nothing")
	}
	var b strings.Builder
	if err := s.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"hlts_cache_build_hit 4", "hlts_cache_build_miss 1", "hlts_time_x_seconds", "hlts_cache_build_hitrate 0.8\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteText missing %q:\n%s", want, out)
		}
	}
}

// WriteText is the /metrics exposition consumed by scrapers and the CLIs'
// -stats dump: its output for a fixed collector state is pinned byte for
// byte so a format drift breaks this test, not a dashboard.
func TestWriteTextFormatStability(t *testing.T) {
	s := New()
	s.Add("cache.build.hit", 3)
	s.Add("cache.build.miss", 1)
	s.Add("server.jobs.run", 7)
	s.mu.Lock()
	s.timers["time.sched"] = 1500 * time.Microsecond
	s.mu.Unlock()
	s.Observe("http.synthesize.latency", 0.0004)
	s.Observe("http.synthesize.latency", 0.03)
	s.Observe("http.synthesize.latency", 42) // beyond the last bound: +Inf only

	var b strings.Builder
	if err := s.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE hlts_cache_build_hit counter
hlts_cache_build_hit 3
# TYPE hlts_cache_build_miss counter
hlts_cache_build_miss 1
# TYPE hlts_server_jobs_run counter
hlts_server_jobs_run 7
# TYPE hlts_time_sched_seconds gauge
hlts_time_sched_seconds 0.0015
# TYPE hlts_http_synthesize_latency_seconds histogram
hlts_http_synthesize_latency_seconds_bucket{le="0.001"} 1
hlts_http_synthesize_latency_seconds_bucket{le="0.0025"} 1
hlts_http_synthesize_latency_seconds_bucket{le="0.005"} 1
hlts_http_synthesize_latency_seconds_bucket{le="0.01"} 1
hlts_http_synthesize_latency_seconds_bucket{le="0.025"} 1
hlts_http_synthesize_latency_seconds_bucket{le="0.05"} 2
hlts_http_synthesize_latency_seconds_bucket{le="0.1"} 2
hlts_http_synthesize_latency_seconds_bucket{le="0.25"} 2
hlts_http_synthesize_latency_seconds_bucket{le="0.5"} 2
hlts_http_synthesize_latency_seconds_bucket{le="1"} 2
hlts_http_synthesize_latency_seconds_bucket{le="2.5"} 2
hlts_http_synthesize_latency_seconds_bucket{le="5"} 2
hlts_http_synthesize_latency_seconds_bucket{le="10"} 2
hlts_http_synthesize_latency_seconds_bucket{le="+Inf"} 3
hlts_http_synthesize_latency_seconds_sum 42.0304
hlts_http_synthesize_latency_seconds_count 3
# TYPE hlts_cache_build_hitrate gauge
hlts_cache_build_hitrate 0.75
`
	if got := b.String(); got != want {
		t.Errorf("WriteText output drifted.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// A nil collector must be inert: every method callable, zero values out.
func TestNilStats(t *testing.T) {
	var s *Stats
	s.Add("x", 1)
	s.Time("y")()
	s.Observe("h", 1)
	if s.Value("x") != 0 || s.Duration("y") != 0 || s.HitRate("z") != 0 {
		t.Error("nil Stats not inert")
	}
	var b strings.Builder
	if err := s.WriteText(&b); err != nil || b.Len() != 0 {
		t.Errorf("nil WriteText = (%q, %v), want empty", b.String(), err)
	}
}

// The collector is shared by the tie-policy fan-out and the experiment
// harness: concurrent writers must not lose increments (run with -race).
func TestConcurrentAdd(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				s.Add("n", 1)
				s.Time("t")()
			}
		}()
	}
	wg.Wait()
	if got := s.Value("n"); got != 8000 {
		t.Errorf("n = %d, want 8000", got)
	}
}
