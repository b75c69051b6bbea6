package main

// perLayer lists the per-layer metrics every --trace 1 run reports, in
// output order, with their units. BENCHMARK.json declares the same set;
// README.md says which end-to-end metric each should move, on which
// workload, and where it should not move. A layer a workload does not
// exercise reports 0.
var perLayer = []struct{ name, unit string }{
	// One firmware tick and its sublayers, per tick, from a flight of the
	// workload's mission: the tick is timed directly, the plant through a
	// timing sim.Vehicle, and sensors/EKF/control by replaying the
	// recorded inputs through fresh instances (outputs checked bit for bit).
	{"firmware.tick_ns", "ns"},
	{"sim.step_ns", "ns"},
	{"sensors.sample_ns", "ns"},
	{"ekf.predict_ns", "ns"},
	{"ekf.fuse_ns", "ns"},
	{"control.cascade_ns", "ns"},
	{"firmware.other_ns", "ns"},
	{"defense.observe_ns", "ns"},
	// Firmware work inside the re-executed RL environments.
	{"firmware.ticks", "count"},
	{"firmware.sim_s_per_host_s", "s/s"},
	// core environments and the Algorithm 1 pipeline stages.
	{"core.reset_ms", "ms"},
	{"core.resets", "count"},
	{"core.warmup_share", "ratio"},
	{"core.step_us", "us"},
	{"core.steps", "count"},
	{"core.early_done_ratio", "ratio"},
	{"core.profile_ms", "ms"},
	{"core.analyze_groups_ms", "ms"},
	{"core.analyze_roll_ms", "ms"},
	// stats, replayed stage by stage from the algorithm1 profiles.
	{"stats.prune_ms", "ms"},
	{"stats.correlation_ms", "ms"},
	{"stats.cluster_ms", "ms"},
	{"stats.select_ms", "ms"},
	// rl and attack.
	{"rl.learner_self_ms", "ms"},
	{"rl.episodes", "count"},
	{"attack.calibrate_ms", "ms"},
	{"attack.session_ms", "ms"},
	// campaign runner, store and aggregation.
	{"campaign.exec_busy_s", "s"},
	{"campaign.units", "count"},
	{"campaign.pool_idle_frac", "ratio"},
	{"campaign.scaling_eff", "ratio"},
	{"campaign.store_append_us", "us"},
	{"campaign.store_appends", "count"},
	{"campaign.aggregate_ms", "ms"},
	// serve, from the client side and the server's own /metrics.
	{"serve.submit_ms", "ms"},
	{"serve.result_ms", "ms"},
	{"serve.spec_hash_us", "us"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.exec_ms", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.dedup_ratio", "ratio"},
	{"serve.rejected", "count"},
	{"serve.hit_p50_ms", "ms"},
	{"serve.hit_p90_ms", "ms"},
	{"serve.fresh_p90_ms", "ms"},
	// Go runtime, over the untraced operations of the traced run.
	{"runtime.alloc_mb_per_op", "MB"},
	{"runtime.gc_cpu_frac", "ratio"},
	// Tracing overhead: traced/untraced − 1 of the same end-to-end timing.
	{"trace.overhead_frac", "ratio"},
}
