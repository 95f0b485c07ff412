package main

// endToEnd lists the metrics of an untraced run (-trace 0). Every workload
// reports each one; what an operation is depends on the workload (see
// README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"heap_peak_mb", "MB"},
}

// perLayer lists the metrics of a traced run (-trace 1). A layer that is
// idle on a workload reads 0 there.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"adws.run_ms_p50.tree", "ms"},
		{"adws.run_ms_p50.skew", "ms"},
		{"runtime.tasks_per_s", "1/s"},
		{"runtime.ns_per_task", "ns"},
		{"runtime.allocs_per_task", "count"},
		{"runtime.bytes_per_task", "B"},
		{"runtime.steal_success_ratio", "ratio"},
		{"runtime.steals_per_ktask", "count"},
		{"runtime.migrations_per_ktask", "count"},
		{"runtime.idle_frac", "ratio"},
		{"runtime.parks_per_ktask", "count"},
		{"runtime.wakes_per_ktask", "count"},
		{"go.gc_cycles", "count"},
		{"go.gc_pause_ms", "ms"},
		{"cluster.submit_us_p50", "us"},
		{"cluster.submit_us_p99", "us"},
		{"server.queue_wait_ms_p50", "ms"},
		{"server.queue_wait_ms_p99", "ms"},
		{"server.claim_us_p50", "us"},
		{"server.claim_us_p99", "us"},
		{"server.reap_us_p50", "us"},
		{"server.reap_us_p99", "us"},
		{"server.reject_ratio", "ratio"},
		{"job_fail_ratio", "ratio"},
	}
	for _, k := range defaultServe().Mix {
		defs = append(defs,
			metricDef{"kernels.exec_ms_p50." + k.Label, "ms"},
			metricDef{"kernels.tasks_per_job." + k.Label, "count"},
			metricDef{"kernels.steals_per_job." + k.Label, "count"})
	}
	defs = append(defs,
		metricDef{"obs.watchdog_triggers", "count"},
		metricDef{"loadgen.lag_p99_ms", "ms"},
		metricDef{"loadgen.max_queued", "count"},
		metricDef{"sim.run_ms_p50", "ms"},
		metricDef{"sim.tasks_per_s", "1/s"},
		metricDef{"sim.accesses_per_s", "1/s"},
		metricDef{"sim.allocs_per_task", "count"},
		metricDef{"figures.engine_runs", "count"},
		metricDef{"figures.orchestration_s", "s"},
		metricDef{"trace.dominant_hit_rate", "ratio"},
		metricDef{"trace.steal_distance_p50", "count"},
		metricDef{"trace.wait_ms", "ms"},
		metricDef{"trace.park_ms", "ms"},
		metricDef{"trace.drops", "count"},
		metricDef{"trace.untraced_op_p50_ms", "ms"},
		metricDef{"trace.traced_op_p50_ms", "ms"},
		metricDef{"trace.overhead_ratio", "ratio"},
	)
	for _, layer := range []string{"adws", "client", "loadgen", "cluster", "server", "kernels", "figures", "workload", "sim"} {
		defs = append(defs, metricDef{"self_ms." + layer, "ms"})
	}
	return defs
}()
