// metrics.go names every metric the benchmark reports. BENCHMARK.json
// lists the same names, units and directions (a test keeps the two
// equal); moves records, for each per-layer metric, the end-to-end
// metrics and workloads a change in that layer should show on.
package main

type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
	moves  []string // per-layer only: "<end-to-end metric>@<workload>"
}

// endToEnd are what a user of the daemons sees, reported with tracing off.
// Every one is reported on every workload and is never zero.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "throughput_rps", unit: "req/s", better: "higher", bound: 0.25},
	{name: "latency_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "cpu_ms_per_req", unit: "ms", better: "lower", bound: 0.25},
	{name: "rss_mb", unit: "MB", better: "lower", bound: 0.1},
}

// Units of per-layer metrics that are deterministic for a given seed and
// code: compare mode requires them to match exactly.
const (
	unitCount = "count"
	unitPct   = "%"
)

// perLayer are measured by the traced run, in the benchmark's own spans
// around each layer's public functions and from the counters the layers
// already expose. A layer a workload does not reach reports 0.
var perLayer = []metricDef{
	{name: "hdl.compile_ms", unit: "ms", better: "lower", moves: []string{"latency_p50_ms@synth-unique"}},
	{name: "dfg.load_ms", unit: "ms", better: "lower", moves: []string{"latency_p50_ms@serve-hot"}},

	{name: "server.fingerprint_ms", unit: "ms", better: "lower", moves: []string{"latency_p50_ms@serve-hot"}},
	{name: "server.handler_hit_ms", unit: "ms", better: "lower", moves: []string{"latency_p50_ms@serve-hot"}},
	{name: "server.http_ms", unit: "ms", better: "lower", moves: []string{"latency_p50_ms@serve-hot", "latency_p50_ms@synth-unique"}},
	{name: "server.job_ms", unit: "ms", better: "lower", moves: []string{"latency_p50_ms@synth-unique", "latency_p50_ms@atpg-paper"}},
	{name: "server.queue_wait_ms", unit: "ms", better: "lower", moves: []string{"latency_p50_ms@synth-unique"}},
	{name: "server.cache.hit_rate", unit: "ratio", better: "higher", moves: []string{"latency_p50_ms@serve-hot"}},
	{name: "server.store.hit_rate", unit: "ratio", better: "higher", moves: []string{"latency_p50_ms@serve-hot"}},
	{name: "server.coalesce.hits", unit: "req", better: "higher", moves: []string{"cpu_ms_per_req@cluster-mixed"}},
	{name: "server.jobs.run", unit: "req", better: "lower", moves: []string{"cpu_ms_per_req@serve-hot", "cpu_ms_per_req@cluster-mixed"}},
	{name: "server.queue.rejected", unit: "req", better: "lower", moves: []string{"throughput_rps@synth-unique"}},

	{name: "core.synth_ms", unit: "ms", better: "lower", moves: []string{"throughput_rps@synth-unique", "cpu_ms_per_req@synth-unique"}},
	{name: "core.time.sched_ms", unit: "ms", better: "lower", moves: []string{"throughput_rps@synth-unique"}},
	{name: "core.time.floorplan_ms", unit: "ms", better: "lower", moves: []string{"throughput_rps@synth-unique"}},
	{name: "core.time.testability_ms", unit: "ms", better: "lower", moves: []string{"throughput_rps@synth-unique"}},
	{name: "core.time.reach_ms", unit: "ms", better: "lower", moves: []string{"throughput_rps@synth-unique"}},
	{name: "core.evaluations", unit: unitCount, better: "lower", moves: []string{"cpu_ms_per_req@synth-unique"}},
	{name: "core.prunes", unit: unitCount, better: "higher", moves: []string{"cpu_ms_per_req@synth-unique"}},
	{name: "core.cache.build.hit_rate", unit: unitPct, better: "higher", moves: []string{"cpu_ms_per_req@synth-unique"}},
	{name: "core.cache.metrics.hit_rate", unit: unitPct, better: "higher", moves: []string{"cpu_ms_per_req@synth-unique"}},

	{name: "rtl.generate_ms", unit: "ms", better: "lower", moves: []string{"throughput_rps@atpg-paper"}},
	{name: "rtl.gates", unit: unitCount, better: "lower", moves: []string{"throughput_rps@atpg-paper"}},

	{name: "fault.collapse_ms", unit: "ms", better: "lower", moves: []string{"throughput_rps@atpg-paper"}},
	{name: "fault.collapsed", unit: unitCount, better: "lower", moves: []string{"throughput_rps@atpg-paper"}},

	{name: "logicsim.faultsim_ms", unit: "ms", better: "lower", moves: []string{"throughput_rps@atpg-paper"}},

	{name: "atpg.run_ms", unit: "ms", better: "lower", moves: []string{"throughput_rps@atpg-paper", "latency_p50_ms@atpg-paper"}},
	{name: "atpg.podem_ms", unit: "ms", better: "lower", moves: []string{"throughput_rps@atpg-paper", "latency_p50_ms@atpg-paper"}},
	{name: "atpg.bist_ms", unit: "ms", better: "lower", moves: []string{"throughput_rps@atpg-paper"}},
	{name: "atpg.effort_keval", unit: unitCount, better: "lower", moves: []string{"cpu_ms_per_req@atpg-paper"}},
	{name: "atpg.random_detected", unit: unitCount, better: "higher", moves: []string{"cpu_ms_per_req@atpg-paper"}},
	{name: "atpg.det_detected", unit: unitCount, better: "higher"},
	{name: "atpg.aborted", unit: unitCount, better: "lower", moves: []string{"cpu_ms_per_req@atpg-paper"}},
	{name: "atpg.frame_limited", unit: unitCount, better: "lower", moves: []string{"cpu_ms_per_req@atpg-paper"}},
	{name: "atpg.bist_passes", unit: unitCount, better: "lower", moves: []string{"cpu_ms_per_req@atpg-paper"}},
	{name: "atpg.podem_yield", unit: unitPct, better: "higher", moves: []string{"throughput_rps@atpg-paper"}},
	{name: "atpg.fault_coverage_pct", unit: unitPct, better: "higher"},

	{name: "store.put_ms", unit: "ms", better: "lower", moves: []string{"latency_p50_ms@synth-unique"}},
	{name: "store.get_ms", unit: "ms", better: "lower", moves: []string{"latency_p50_ms@serve-hot"}},
	{name: "store.open_s", unit: "s", better: "lower", moves: []string{"setup_s@serve-hot"}},

	{name: "cluster.hop_ms", unit: "ms", better: "lower", moves: []string{"latency_p50_ms@cluster-mixed"}},
	{name: "cluster.coordinator_cpu_ms_per_req", unit: "ms", better: "lower", moves: []string{"cpu_ms_per_req@cluster-mixed"}},
	{name: "cluster.dispatch.ok", unit: "req", better: "higher", moves: []string{"throughput_rps@cluster-mixed"}},
	{name: "cluster.dispatch.recovered", unit: "req", better: "lower", moves: []string{"latency_p50_ms@cluster-mixed"}},
	{name: "cluster.dispatch.pushback", unit: "req", better: "lower", moves: []string{"latency_p50_ms@cluster-mixed"}},
	{name: "server.replicate.pulled", unit: "records", better: "lower", moves: []string{"cpu_ms_per_req@cluster-mixed"}},
	{name: "server.replicate.readrepair", unit: "req", better: "higher", moves: []string{"cpu_ms_per_req@cluster-mixed"}},
	{name: "cluster.replicate.lag", unit: "records", better: "lower"},

	{name: "driver.max_lag_ms", unit: "ms", better: "lower"},
	{name: "driver.samples", unit: "req", better: "higher"},
	{name: "trace.attributed_ratio", unit: "ratio", better: "higher"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the outcome of one workload run, the last line the command
// prints and one entry of results.json.
type result struct {
	Workload  string            `json:"workload,omitempty"`
	Seed      uint64            `json:"seed,omitempty"`
	Trace     bool              `json:"trace,omitempty"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Extra holds reported values outside BENCHMARK.json: percentiles
	// beyond the median where the percentile rule allows them,
	// fail_ratio, and fault_coverage_pct.
	Extra      map[string]metric `json:"extra,omitempty"`
	Violations []string          `json:"violations,omitempty"`
}
