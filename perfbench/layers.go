package main

import "strings"

// endToEnd lists the end-to-end metrics every untraced run prints; the
// meaning of each per workload is in README.md. BENCHMARK.json carries
// the same names with their bounds (catalog_test.go keeps them equal).
var endToEnd = []string{"setup_s", "throughput_per_s", "latency_p50_ms", "heap_live_mib", "peak_heap_mib"}

// perLayer lists every per-layer metric a traced run prints, with its
// unit. A layer a workload does not reach prints 0: that is the
// prediction for a bypass workload.
var perLayer = []struct{ name, unit string }{
	{"step.plan_s", "s"},
	{"step.apply_s", "s"},
	{"step.intents", "count"},
	{"aas.attempts", "count"},
	{"aas.success_ratio", "ratio"},
	{"platform.requests", "count"},
	{"platform.allowed_ratio", "ratio"},
	{"platform.stage.preflight_s", "s"},
	{"platform.stage.session_s", "s"},
	{"platform.stage.ratelimit_s", "s"},
	{"platform.stage.gatekeep_s", "s"},
	{"platform.stage.apply_s", "s"},
	{"platform.stage.telemetry_s", "s"},
	{"platform.stage.emit_s", "s"},
	{"detection.ipguard_calls", "count"},
	{"detection.ipguard_s", "s"},
	{"durable.append_calls", "count"},
	{"durable.append_s", "s"},
	{"durable.log_mib", "MiB"},
	{"durable.checkpoint_self_s", "s"},
	{"durable.resume_s", "s"},
	{"durable.ckpt_stall_ms_tail", "ms"},
	{"durable.ckpt_count", "count"},
	{"persistence.snapshot_s", "s"},
	{"persistence.snap_mib", "MiB"},
	{"persistence.restore_s", "s"},
	{"server.envelopes_per_drain", "count"},
	{"server.enqueue_wait_ms_p99", "ms"},
	{"server.queue_depth_max", "count"},
	{"server.overloaded", "count"},
	{"server.ws_dropped", "count"},
	{"server.replay_us_per_env", "us"},
	{"server.http_self_s", "s"},
	{"wire.parse_ns", "ns"},
	{"gen.lag_ms_p99", "ms"},
	{"core.accounts", "count"},
	{"go.alloc_mib_setup", "MiB"},
	{"go.gc_cycles_setup", "count"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"go.alloc_mib", "MiB"},
	{"cpu.aas_share", "ratio"},
	{"cpu.behavior_share", "ratio"},
	{"cpu.platform_share", "ratio"},
	{"cpu.socialgraph_share", "ratio"},
	{"cpu.netsim_share", "ratio"},
	{"cpu.detection_share", "ratio"},
	{"cpu.eventio_share", "ratio"},
	{"cpu.durable_share", "ratio"},
	{"cpu.persistence_share", "ratio"},
	{"cpu.server_share", "ratio"},
	{"cpu.wire_share", "ratio"},
	{"cpu.runtime_share", "ratio"},
	{"cpu.core_share", "ratio"},
	{"cpu.step_share", "ratio"},
	{"cpu.clock_share", "ratio"},
	{"cpu.trace_share", "ratio"},
	{"cpu.telemetry_share", "ratio"},
	{"cpu.time_share", "ratio"},
	{"cpu.json_share", "ratio"},
	{"cpu.net_share", "ratio"},
	{"cpu.perfbench_share", "ratio"},
	{"cpu.other_share", "ratio"},
	{"ledger.unattributed_ratio", "ratio"},
	{"trace.overhead_ratio", "ratio"},
	// The serve and durable workloads' own end-to-end numbers that the
	// shared end-to-end names above do not carry, from the traced pass.
	{"serve.req_p50_ms_hi", "ms"},
	{"serve.req_p99_ms_hi", "ms"},
	{"serve.deliver_p99_ms_hi", "ms"},
	{"durable.recover_s", "s"},
}

// completeLayers fills every per-layer metric the workload did not
// reach with 0 and drops any name outside the catalog.
func (r *result) completeLayers() {
	known := make(map[string]bool, len(perLayer))
	for _, l := range perLayer {
		known[l.name] = true
		if _, ok := r.layer[l.name]; !ok {
			r.set(r.layer, l.name, 0, l.unit, 0)
		}
	}
	for k := range r.layer {
		if !known[k] {
			delete(r.layer, k)
		}
	}
}

// setTelemetry copies the step and aas counters from the registry.
func (r *result) setTelemetry(t *tracer) {
	snap := t.reg.Snapshot()
	hist := func(name string) float64 { return float64(snap.Histograms[name].Sum) / 1e9 }
	r.set(r.layer, "step.plan_s", hist("step.plan.shard.ns"), "s", int(snap.Histograms["step.plan.shard.ns"].Count))
	r.set(r.layer, "step.apply_s", hist("step.apply.ns"), "s", int(snap.Histograms["step.apply.ns"].Count))
	r.set(r.layer, "step.intents", float64(snap.Counters["step.intents"]), "count", 1)
	var attempts, successes int64
	for name, v := range snap.Counters {
		switch {
		case strings.HasPrefix(name, "aas.") && strings.HasSuffix(name, ".attempts") && !strings.HasSuffix(name, "relogin.attempts"):
			attempts += v
		case strings.HasPrefix(name, "aas.") && strings.HasSuffix(name, ".successes"):
			successes += v
		}
	}
	r.set(r.layer, "aas.attempts", float64(attempts), "count", 1)
	r.set(r.layer, "aas.success_ratio", ratio(float64(successes), float64(attempts)), "ratio", int(attempts))
	a := t.agg
	r.set(r.layer, "platform.requests", float64(a.requests), "count", 1)
	r.set(r.layer, "platform.allowed_ratio", ratio(float64(a.allowed), float64(a.requests)), "ratio", int(a.requests))
}
