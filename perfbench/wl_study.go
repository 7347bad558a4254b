package main

import (
	"runtime"
	"time"

	"footsteps"
	"footsteps/perfbench/study"
)

// extraSetups is how many setups beyond the measured ones each simulator
// workload times, so setup_s is a median even when the window holds one
// or two runs.
const extraSetups = 10

// runStudy is the §5 90-day business study at DefaultConfig, repeated
// with one seed while the window lasts (at least twice, so the report
// hash and event count can be compared across runs).
func runStudy(o opts) *result {
	r := newResult()
	if o.trace {
		return traceStudy(o, r)
	}
	var setups []time.Duration
	for i := 0; i < extraSetups; i++ {
		_, d := study.Setup(o.seed)
		setups = append(setups, d)
		release()
	}
	window := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	var (
		runs  []*study.Run
		days  latencies
		rates []float64
		live  float64
	)
	for len(runs) < 2 || time.Since(start)+runs[len(runs)-1].Wall <= window {
		st, d := study.Setup(o.seed)
		setups = append(setups, d)
		runtime.GC() // the window starts with no collection debt from setup
		run, res, err := study.Business(st)
		if err != nil {
			r.check(false, "%v", err)
			break
		}
		runs = append(runs, run)
		days = append(days, run.Days...)
		rates = append(rates, float64(run.SimDays)/run.Wall.Seconds())
		r.check(run.CheckOK, "CheckBusiness findings failed:\n%s", run.Check)
		first := runs[0]
		r.check(run.ReportSHA == first.ReportSHA && run.Events == first.Events,
			"run %d of seed %d: report sha %x, %d events; run 1: %x, %d events",
			len(runs), o.seed, run.ReportSHA[:8], run.Events, first.ReportSHA[:8], first.Events)
		live = liveHeapMiB()
		runtime.KeepAlive(st)
		runtime.KeepAlive(res)
		st, res = nil, nil
		release()
	}
	if len(runs) == 0 {
		return r
	}
	r.set(r.e2e, "setup_s", medianSeconds(setups), "s", len(setups))
	r.set(r.e2e, "throughput_per_s", median(rates), "1/s", len(rates))
	r.setLatency(days, "wall per simulated day")
	r.set(r.e2e, "heap_live_mib", live, "MiB", 1)
	r.set(r.named, "sim_days_per_s", median(rates), "1/s", len(rates))
	r.set(r.named, "events", float64(runs[0].Events), "count", len(runs))
	return r
}

// traceStudy is the traced pass: one untraced run for the overhead
// baseline, then one run with telemetry, full-rate FTRC1 spans, a timed
// IP guard and a CPU profile.
func traceStudy(o opts, r *result) *result {
	st, _ := study.Setup(o.seed)
	base, _, err := study.Business(st)
	if err != nil {
		r.check(false, "%v", err)
		return r
	}
	st = nil
	release()

	tr, err := newTracer(o.seed)
	if err != nil {
		r.check(false, "tracer: %v", err)
		return r
	}
	cpu, err := startCPU()
	if err != nil {
		r.check(false, "%v", err)
		return r
	}
	led := newLedger()
	m0 := memStats()
	win := led.begin("window", 0)
	var traced *footsteps.Study
	led.time("core.setup", win, func() { traced, _ = study.Setup(o.seed, tr.options()...) })
	setupMem := deltaSince(m0)
	gate := wrapGuard(traced.World())
	tr.markRun()
	var run *study.Run
	led.time("run", win, func() { run, _, err = study.Business(traced) })
	wall := led.end(win)
	window := deltaSince(m0)
	perr := cpu.stop(r)
	terr := tr.finish()
	if err != nil || perr != nil || terr != nil {
		r.check(false, "traced study: %v %v %v", err, perr, terr)
		return r
	}
	r.check(run.CheckOK, "traced CheckBusiness findings failed:\n%s", run.Check)
	r.check(run.ReportSHA == base.ReportSHA, "traced report differs from untraced: tracing is not inert")

	led.platform(tr.agg, "run", gate.ns.Load(), 0)
	led.report(r, wall, "window", "run")
	r.setTelemetry(tr)
	r.set(r.layer, "detection.ipguard_calls", float64(gate.calls.Load()), "count", 1)
	r.set(r.layer, "detection.ipguard_s", float64(gate.ns.Load())/1e9, "s", int(gate.calls.Load()))
	r.set(r.layer, "core.accounts", float64(traced.World().Plat.NumAccounts()), "count", 1)
	r.set(r.layer, "go.alloc_mib_setup", float64(setupMem.allocated)/mib, "MiB", 1)
	r.set(r.layer, "go.gc_cycles_setup", float64(setupMem.gcCycles), "count", 1)
	r.setRuntime(window)
	r.set(r.layer, "trace.overhead_ratio", run.Wall.Seconds()/base.Wall.Seconds(), "ratio", 1)
	if err := led.writeSpans("study", o.seed); err != nil {
		r.check(false, "write spans: %v", err)
	}
	r.completeLayers()
	return r
}
