package main

// metricDef is one reported metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change counts
// as a regression; per-layer metrics carry none.
type metricDef struct {
	Name, Unit, Better string
	Bound              float64
}

// endToEnd are the metrics a run with -trace 0 reports, on every
// workload. Host metrics measure the simulator, wall_ref and cpu_ref in
// units of the reference task (ref.go); the ping_*, vm_* metrics
// are modeled, in simulated time, and repeat exactly at a fixed seed.
var endToEnd = []metricDef{
	{"wall_ref", "ref", "lower", 0.25},
	{"cpu_ref", "ref", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"alloc_mb", "MB", "lower", 0.2},
	{"allocs_m", "M", "lower", 0.2},
	{"heap_live_mb", "MB", "lower", 0.25},
	{"rss_peak_mb", "MB", "lower", 0.25},
	{"ping_rtt_p50_us", "us", "lower", 0.1},
	{"ping_rtt_p99_us", "us", "lower", 0.25},
	{"vm_startup_p50_ms", "ms", "lower", 0.25},
	{"vm_startup_p90_ms", "ms", "lower", 0.2},
	{"vm_ok_pct", "%", "higher", 0.05},
}

// perLayer are the metrics a run with -trace 1 reports, on every
// workload; a layer the workload does not exercise reports 0.
var perLayer = []metricDef{
	{Name: "sim.events", Unit: "count", Better: "lower"},
	{Name: "sim.events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "sim.allocs_per_event", Unit: "count", Better: "lower"},
	{Name: "sim.bytes_per_event", Unit: "B", Better: "lower"},
	{Name: "sim.queue_hwm", Unit: "count", Better: "lower"},
	{Name: "sim.self_s", Unit: "s", Better: "lower"},
	{Name: "sim.anon_share", Unit: "ratio", Better: "lower"},
	{Name: "sim.anon_self_s", Unit: "s", Better: "lower"},
	{Name: "accel.packets", Unit: "count", Better: "higher"},
	{Name: "accel.self_s", Unit: "s", Better: "lower"},
	{Name: "accel.ns_per_packet", Unit: "ns", Better: "lower"},
	{Name: "accel.probe_irqs", Unit: "count", Better: "lower"},
	{Name: "dataplane.batches", Unit: "count", Better: "higher"},
	{Name: "dataplane.idle_polls", Unit: "count", Better: "lower"},
	{Name: "dataplane.useful_ratio", Unit: "ratio", Better: "higher"},
	{Name: "dataplane.self_s", Unit: "s", Better: "lower"},
	{Name: "dataplane.net_util", Unit: "ratio", Better: "higher"},
	{Name: "kernel.dispatches", Unit: "count", Better: "higher"},
	{Name: "kernel.softirqs", Unit: "count", Better: "lower"},
	{Name: "kernel.self_s", Unit: "s", Better: "lower"},
	{Name: "vcpu.entries", Unit: "count", Better: "higher"},
	{Name: "vcpu.exits", Unit: "count", Better: "lower"},
	{Name: "vcpu.self_s", Unit: "s", Better: "lower"},
	{Name: "vcpu.ns_per_switch", Unit: "ns", Better: "lower"},
	{Name: "core.preempts", Unit: "count", Better: "lower"},
	{Name: "core.yields", Unit: "count", Better: "higher"},
	{Name: "core.preempt_lat_p99_us", Unit: "us", Better: "lower"},
	{Name: "core.overload_transitions", Unit: "count", Better: "lower"},
	{Name: "core.faults_detected", Unit: "count", Better: "higher"},
	{Name: "core.faults_recovered", Unit: "count", Better: "higher"},
	{Name: "core.self_s", Unit: "s", Better: "lower"},
	{Name: "cluster.issued", Unit: "count", Better: "higher"},
	{Name: "cluster.completed", Unit: "count", Better: "higher"},
	{Name: "cluster.retried", Unit: "count", Better: "lower"},
	{Name: "cluster.dead_lettered", Unit: "count", Better: "lower"},
	{Name: "cluster.shed", Unit: "count", Better: "lower"},
	{Name: "cluster.resurrected", Unit: "count", Better: "higher"},
	{Name: "cluster.attempts_per_completion", Unit: "ratio", Better: "lower"},
	{Name: "cluster.self_s", Unit: "s", Better: "lower"},
	{Name: "controlplane.cp_exec_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "controlplane.breaker_trips", Unit: "count", Better: "lower"},
	{Name: "faults.injected", Unit: "count", Better: "lower"},
	{Name: "placement.scans", Unit: "count", Better: "lower"},
	{Name: "placement.replaced", Unit: "count", Better: "lower"},
	{Name: "placement.migrations", Unit: "count", Better: "lower"},
	{Name: "placement.hot_scans", Unit: "count", Better: "lower"},
	{Name: "placement.barrier_s", Unit: "s", Better: "lower"},
	{Name: "fleet.advance_s", Unit: "s", Better: "lower"},
	{Name: "fleet.member_cpu_s", Unit: "s", Better: "lower"},
	{Name: "fleet.pool_eff", Unit: "ratio", Better: "higher"},
	{Name: "trace.records", Unit: "count", Better: "lower"},
	{Name: "trace.dropped", Unit: "count", Better: "lower"},
	{Name: "obs.derive_s", Unit: "s", Better: "lower"},
	{Name: "obs.chrome_s", Unit: "s", Better: "lower"},
	{Name: "obs.spans", Unit: "count", Better: "higher"},
	{Name: "obs.chrome_mb", Unit: "MB", Better: "lower"},
	{Name: "obs.ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "audit.replay_s", Unit: "s", Better: "lower"},
	{Name: "audit.ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "audit.violations", Unit: "count", Better: "lower"},
	{Name: "bench.trace_overhead", Unit: "ratio", Better: "lower"},
}
