package main

// metric declares one reported number. The tables below are the single
// source of names, units and bounds: the report printer walks them, and a
// test holds BENCHMARK.json to them.
type metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression. Per-layer
	// metrics have none.
	Bound float64
	// Exact marks a per-layer count that repeats bit-for-bit between runs
	// of one commit at one seed; -compare requires equality on these.
	Exact bool
}

// endToEnd is what a user regenerating a grid pays, measured with tracing
// off. failed_share is not listed: it is 0 on a healthy tree, and a metric
// that is 0 has no relative bound, so it travels as the result line's
// failed/attempted pair instead (any failure fails the run).
//
// The bounds are what the reference sandbox supports, not what one would
// wish for: on its two shared vCPUs whole runs slow down by 20-30 % for tens
// of seconds at a time (wall and CPU time together), and the quartiles of
// ten same-commit runs sit 4-10 % apart on every timing and up to 16 % on
// peak RSS. A bound has to clear three times that spread to be decidable,
// and the benchmark contract caps it at 25 %. Only alloc_mb, which is
// nearly deterministic, affords a tight one. Claims smaller than a bound
// need the paired-run protocol of the choosing-metrics guide.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wall_p95_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cells_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.10},
}

func lower(name, unit string) metric { return metric{Name: name, Unit: unit, Better: "lower"} }
func count(name string) metric {
	return metric{Name: name, Unit: "count", Better: "lower", Exact: true}
}

// unitMetrics are the group (A) unit costs: fixed inputs, one layer each.
var unitMetrics = []metric{
	lower("sim.kernel_ns_per_event", "ns"),
	lower("sim.handoff_ns_per_event", "ns"),
	lower("network.lan_send_ns", "ns"),
	lower("network.wan_send_ns", "ns"),
	lower("network.multihop_send_ns", "ns"),
	lower("par.lan_cycle_ns", "ns"),
	lower("par.wan_cycle_ns", "ns"),
	lower("par.wan_faulted_cycle_ns", "ns"),
	count("par.lan_cycle_allocs"),
	count("par.wan_cycle_allocs"),
	lower("par.engine_seq_s", "s"),
	lower("par.engine_w1_s", "s"),
	lower("par.engine_w2_s", "s"),
	count("cliutil.workers_resolved"),
	lower("collective.flat_us_per_op", "us"),
	lower("collective.hier_us_per_op", "us"),
	lower("apps.water_ns_per_pair", "ns"),
	lower("apps.fft_ns_per_butterfly", "ns"),
	lower("apps.asp_ns_per_row", "ns"),
	lower("apps.barneshut_ns_per_interaction", "ns"),
	lower("apps.tsp_ns_per_node", "ns"),
	lower("apps.awari_ns_per_state", "ns"),
	lower("analytic.solve_ns_per_op", "ns"),
	lower("analytic.batch_ns_per_point_op", "ns"),
	lower("analytic.matched_us_per_point", "us"),
	lower("analytic.record_overhead_pct", "%"),
	{Name: "analytic.graph_bytes_per_op", Unit: "B", Better: "lower", Exact: true},
	lower("core.key_ns", "ns"),
	lower("core.cache_mem_hit_ns", "ns"),
	lower("core.cache_disk_hit_us", "us"),
	lower("core.cache_store_us", "us"),
	lower("wantopo.torus64_build_us", "us"),
	lower("wantopo.minmpl64_build_ms", "ms"),
	lower("trace.stream_overhead_pct", "%"),
}

// spanMetrics are the group (B) spans and counts of one workload's traced
// replay.
var spanMetrics = []metric{
	count("core.cells"),
	lower("core.cell_ms_p50", "ms"),
	lower("core.cell_ms_p95", "ms"),
	lower("apps.new_s", "s"),
	lower("par.run_s", "s"),
	lower("core.cache_store_s", "s"),
	lower("core.cache_load_s", "s"),
	lower("core.warm_mem_pass_ms", "ms"),
	lower("analytic.record_s", "s"),
	lower("analytic.solve_s", "s"),
	count("sim.events"),
	count("network.wan_msgs"),
	{Name: "network.wan_mb", Unit: "MB", Better: "lower", Exact: true},
	count("network.lan_msgs"),
	count("network.dropped"),
	count("par.retransmits"),
	count("par.timeouts"),
	count("par.acks"),
	{Name: "core.cache_mem_hits", Unit: "count", Better: "higher", Exact: true},
	{Name: "core.cache_disk_hits", Unit: "count", Better: "higher", Exact: true},
	count("core.cache_simulated"),
	count("core.cache_stale"),
	count("analytic.graphs_recorded"),
	{Name: "analytic.points_solved", Unit: "count", Better: "higher", Exact: true},
	count("analytic.graph_ops"),
	{Name: "analytic.frozen_variants", Unit: "count", Better: "higher", Exact: true},
	count("analytic.matched_variants"),
	{Name: "analytic.mean_err_pct", Unit: "%", Better: "lower", Exact: true},
	{Name: "analytic.max_err_pct", Unit: "%", Better: "lower", Exact: true},
	lower("sim.host_ns_per_event", "ns"),
	lower("runtime.gc_cycles", "count"),
	lower("runtime.gc_pause_ms", "ms"),
	lower("bench.trace_overhead_pct", "%"),
}

// cpuBuckets are the group (C) top-level CPU buckets, in report order;
// their shares sum to 1. appBuckets split cpu.apps_share further.
var (
	cpuBuckets = []string{"sim", "network", "par", "collective", "apps", "analytic",
		"core", "wantopo", "regime", "faults", "trace",
		"runtime_gc", "runtime_sched", "runtime_mem", "other"}
	appBuckets = []string{"water", "barneshut", "tsp", "asp", "awari", "fft"}
)

func cpuMetrics() []metric {
	var ms []metric
	for _, b := range cpuBuckets {
		ms = append(ms, lower("cpu."+b+"_share", "ratio"))
		if b == "apps" {
			for _, a := range appBuckets {
				ms = append(ms, lower("cpu.apps_"+a+"_share", "ratio"))
			}
		}
	}
	return append(ms, lower("cpu.total_s", "s"))
}

// perLayer is every metric a traced run reports.
func perLayer() []metric {
	ms := append([]metric(nil), unitMetrics...)
	ms = append(ms, spanMetrics...)
	return append(ms, cpuMetrics()...)
}
