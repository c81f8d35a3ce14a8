package main

// metricDef declares one metric; BENCHMARK.json carries the same tables and
// the package test keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression; per-layer
	// metrics have none.
	Bound float64
}

// endToEnd is what a user of the simulator sees, per workload, measured with
// tracing off as the median over the timed runs of one invocation. The
// bounds have to cover the spread across seeds on a shared 2-core sandbox
// (see README "Bounds").
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", 0.25},
	{"simpkts_per_s", "pkt/s", "higher", 0.25},
	{"flowsec_per_s", "flow.s/s", "higher", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"alloc_mb_per_run", "MB", "lower", 0.08},
	{"allocs_per_run", "count", "lower", 0.02},
	{"jain_norm", "ratio", "higher", 0.25},
	{"delivered_share", "ratio", "higher", 0.10},
}

// perLayer is one traced invocation's attribution, named <module>.<metric>.
// Metrics that do not apply to a workload (flowsim.* on the packet backend,
// sim.loop_* on the fluid one) read 0 there.
var perLayer = []metricDef{
	{"sim.events", "count", "lower", 0},
	{"sim.events_per_s", "1/s", "higher", 0},
	{"sim.loop_link_tx_s", "s", "lower", 0},
	{"sim.loop_link_prop_s", "s", "lower", 0},
	{"sim.loop_source_s", "s", "lower", 0},
	{"sim.loop_control_s", "s", "lower", 0},
	{"sim.loop_measure_s", "s", "lower", 0},
	{"sim.loop_link_tx_events", "count", "lower", 0},
	{"sim.loop_source_events", "count", "lower", 0},
	{"sim.loop_control_events", "count", "lower", 0},
	{"sim.queue_ns_per_event_p64", "ns", "lower", 0},
	{"sim.queue_ns_per_event_p4096", "ns", "lower", 0},
	{"netem.hop_ns_per_pkt", "ns", "lower", 0},
	{"netem.drops", "count", "lower", 0},
	{"netem.peak_queue", "pkt", "lower", 0},
	{"core.router_ns_per_pkt", "ns", "lower", 0},
	{"core.markers_seen", "count", "lower", 0},
	{"core.feedback_sent", "count", "lower", 0},
	{"core.congestion_epochs", "count", "lower", 0},
	{"csfq.router_ns_per_pkt", "ns", "lower", 0},
	{"csfq.arrived", "count", "lower", 0},
	{"csfq.dropped_early", "count", "lower", 0},
	{"adapt.step_ns", "ns", "lower", 0},
	{"metrics.record_ns_per_pkt", "ns", "lower", 0},
	{"trace.write_csv_s", "s", "lower", 0},
	{"trace.csv_mb", "MB", "lower", 0},
	{"topogen.generate_s", "s", "lower", 0},
	{"topogen.spec_links", "count", "lower", 0},
	{"trafficgen.generate_s", "s", "lower", 0},
	{"experiments.run_s", "s", "lower", 0},
	{"experiments.validate_s", "s", "lower", 0},
	{"experiments.harness_s", "s", "lower", 0},
	{"experiments.fair_err_p50", "ratio", "lower", 0},
	{"maxmin.oracle_s", "s", "lower", 0},
	{"flowsim.model_build_s", "s", "lower", 0},
	{"flowsim.run_s", "s", "lower", 0},
	{"flowsim.events", "count", "lower", 0},
	{"flowsim.epochs", "count", "lower", 0},
	{"flowsim.run_alloc_mb", "MB", "lower", 0},
	{"flowsim.run_allocs", "objects", "lower", 0},
	{"flowsim.solve_full_count", "count", "lower", 0},
	{"flowsim.solve_full_s", "s", "lower", 0},
	{"flowsim.solve_incr_count", "count", "lower", 0},
	{"flowsim.solve_incr_s", "s", "lower", 0},
	{"flowsim.solve_touched", "count", "lower", 0},
	{"flowsim.touched_per_solve", "count", "lower", 0},
	{"flowsim.full_solve_once_s", "s", "lower", 0},
	{"flowsim.nonsolve_s", "s", "lower", 0},
	{"runtime.peak_live_heap_mb", "MB", "lower", 0},
	{"obs.attached_overhead_share", "ratio", "lower", 0},
	{"invariant.checks", "count", "higher", 0},
	{"invariant.violations", "count", "lower", 0},
}
