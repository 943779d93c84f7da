package main

// metricDef names one reported metric. The lists below are the benchmark's
// contract with BENCHMARK.json (TestMetricListsMatchBenchmarkJSON keeps the
// two in step): an untraced run prints every end-to-end metric, a traced run
// every per-layer metric, on every workload. A per-layer metric a workload
// cannot observe from outside reads 0 and is marked n/a in the text report.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are the metrics a user of the system sees. A "job" is the unit a
// user waits for: one Figure-1 reproduction on fig1_*, one sweep point on
// machine_sweep, one served request on simd_mixed.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"alloc_mb", "MB", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"jobs_per_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p90_ms", "ms", "lower"},
}

// spanNames are the spans the benchmark records around its calls into the
// layers; each gets a self-time metric self.<name>_s.
var spanNames = []string{
	"bench.pass",
	"hpcg.setup", "core.simulate", "core.step", "folding.fold",
	"report.analyze", "trace.encode", "report.csv",
	"sweep.expand", "sweep.run",
	"simd.start", "simd.client", "simd.handler",
}

func selfMetric(span string) string { return "self." + span + "_s" }

// perLayer are the traced run's metrics, grouped by the module they
// describe.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"hpcg.generate_s", "s", "lower"},

		{"core.simulate_s", "s", "lower"},
		{"core.simulate_alloc_mb", "MB", "lower"},
		{"core.step_ms_p50", "ms", "lower"},
		{"core.step_ms_max", "ms", "lower"},
		{"core.sim_mips", "MIPS", "higher"},
		{"core.instructions", "count", "lower"},
		{"core.cycles", "count", "lower"},

		{"memhier.l1d_accesses", "count", "lower"},
		{"memhier.l1d_miss_ratio", "ratio", "lower"},
		{"memhier.l2_miss_ratio", "ratio", "lower"},
		{"memhier.l3_miss_ratio", "ratio", "lower"},
		{"memhier.dram_fills", "count", "lower"},
		{"memhier.prefetches", "count", "lower"},

		{"numa.remote_fills", "count", "lower"},
		{"numa.remote_ratio", "ratio", "lower"},

		{"pebs.eligible", "count", "lower"},
		{"pebs.recorded", "count", "lower"},
		{"pebs.drains", "count", "lower"},
		{"pebs.recorded_ratio", "ratio", "lower"},
		{"extrae.records", "count", "lower"},

		{"folding.fold_s", "s", "lower"},
		{"folding.fold_alloc_mb", "MB", "lower"},
		{"folding.instances", "count", "lower"},
		{"folding.samples", "count", "lower"},
		{"folding.phases", "count", "higher"},

		{"report.analyze_s", "s", "lower"},
		{"report.csv_s", "s", "lower"},
		{"report.csv_bytes", "bytes", "lower"},

		{"trace.encode_s", "s", "lower"},
		{"trace.prv_bytes", "bytes", "lower"},

		{"scenario.run_s_p50", "s", "lower"},
		{"scenario.run_s_max", "s", "lower"},

		{"sweep.expand_s", "s", "lower"},
		{"sweep.worker_busy_ratio", "ratio", "higher"},
		{"sweep.simulated", "count", "lower"},
		{"sweep.cache_hits", "count", "higher"},
		{"sweep.errors", "count", "lower"},

		{"simd.queue_wait_ms", "ms", "lower"},
		{"simd.run_ms", "ms", "lower"},
		{"simd.handler_ms_p50", "ms", "lower"},
		{"simd.hit_latency_p50_ms", "ms", "lower"},
		{"simd.miss_latency_p50_ms", "ms", "lower"},
		{"simd.transport_ms_p50", "ms", "lower"},
		{"simd.cache_hit_ratio", "ratio", "higher"},
		{"simd.coalesced", "count", "higher"},
		{"simd.shed", "count", "lower"},
		{"client.retries", "count", "lower"},

		{"go.gc_cycles", "count", "lower"},
		{"go.gc_pause_ms", "ms", "lower"},

		{"harness.traced_wall_s", "s", "lower"},
		{"harness.untraced_wall_s", "s", "lower"},
		{"harness.trace_overhead_s", "s", "lower"},
		{"harness.ref_job_s", "s", "lower"},
	}
	for _, s := range spanNames {
		defs = append(defs, metricDef{selfMetric(s), "s", "lower"})
	}
	return defs
}()
