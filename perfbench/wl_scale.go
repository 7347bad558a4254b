package main

import (
	"fmt"
	"runtime"
	"time"

	"footsteps/internal/core"
)

// scaleAccounts is the organic population of the scale workload: the
// million-account world that BenchmarkScaleWorld and ROADMAP quote.
const scaleAccounts = 1_000_000

func scaleConfig(seed uint64) core.Config {
	cfg := core.TestConfig()
	cfg.Seed = seed
	cfg.Days = 90
	cfg.OrganicPopulation = scaleAccounts
	return cfg
}

// scaleIter is one world build and window.
type scaleIter struct {
	setup, run time.Duration
	setupMem   memDelta
	days       latencies
	live       float64
}

// buildScale builds the world, runs its window, checks the population
// and measures the live heap with the world still reachable. With a
// ledger it records the setup and run as spans under parent.
func buildScale(r *result, cfg core.Config, tr *tracer, led *ledger, parent uint64) (*core.World, scaleIter) {
	if tr != nil {
		for _, opt := range tr.options() {
			opt(&cfg)
		}
	}
	var it scaleIter
	m0 := memStats()
	t0 := time.Now()
	w := core.NewWorld(cfg)
	t1 := time.Now()
	it.setup, it.setupMem = t1.Sub(t0), deltaSince(m0)
	organic := w.Pop.Size()
	for name := range w.Recip {
		organic -= len(w.Pop.Pool(name))
	}
	r.check(organic == cfg.OrganicPopulation, "scale: %d organic accounts, configured %d", organic, cfg.OrganicPopulation)
	if led != nil {
		led.span("core.setup", parent, 0, t0, t1)
		tr.markRun()
	}
	g0 := time.Now()
	runtime.GC() // the window starts with no collection debt from setup
	t2 := time.Now()
	if led != nil {
		led.span("runtime.gc", parent, 0, g0, t2)
	}
	w.RunAll()
	last := time.Now()
	err := w.RunDaysFunc(cfg.Days, func(int) error {
		now := time.Now()
		it.days = append(it.days, now.Sub(last))
		last = now
		return nil
	})
	t3 := time.Now()
	it.run = t3.Sub(t2)
	r.check(err == nil, "scale: run: %v", err)
	if led != nil {
		led.span("run", parent, 0, t2, t3)
	}
	t4 := time.Now()
	it.live = liveHeapMiB()
	if led != nil {
		led.span("runtime.gc", parent, 0, t4, time.Now())
	}
	runtime.KeepAlive(w)
	return w, it
}

// scaleMinBuilds is the fewest worlds a run builds, so the build time
// is a median.
const scaleMinBuilds = 3

// runScale builds the 1M-account world and runs its 90 days, at least
// scaleMinBuilds times and while the window lasts; setup dominates.
func runScale(o opts) *result {
	r := newResult()
	cfg := scaleConfig(o.seed)
	if o.trace {
		return traceScale(o, r, cfg)
	}
	window := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	var (
		setups []time.Duration
		days   latencies
		rates  []float64
		lives  []float64
		last   time.Duration
	)
	for len(setups) < scaleMinBuilds || time.Since(start)+last <= window {
		t0 := time.Now()
		_, it := buildScale(r, cfg, nil, nil, 0)
		release()
		last = time.Since(t0)
		setups = append(setups, it.setup)
		days = append(days, it.days...)
		rates = append(rates, float64(cfg.Days)/it.run.Seconds())
		lives = append(lives, it.live)
	}
	// The gated rate and latency are the world build's, which is what a
	// user of this world waits for: 1M-account days take 5-8 ms, and
	// their medians moved 25-28% across ten runs as the host's memory
	// contention came and went, while the builds moved about 10%. The
	// day numbers stay in the report, ungated.
	build := medianSeconds(setups)
	r.set(r.e2e, "setup_s", build, "s", len(setups))
	r.set(r.e2e, "throughput_per_s", float64(cfg.OrganicPopulation)/build, "1/s", len(setups))
	r.set(r.e2e, "latency_p50_ms", 1000*build, "ms", len(setups))
	r.set(r.e2e, "heap_live_mib", median(lives), "MiB", len(lives))
	r.set(r.named, "sim_days_per_s", median(rates), "1/s", len(rates))
	r.set(r.named, "day_ms_p50", days.p50(), "ms", len(days))
	if v, p := days.tail(); p > 0 {
		r.named["day_ms_tail"] = metric{value: v, unit: "ms", n: len(days), note: fmt.Sprintf("p%g", p)}
	}
	return r
}

// traceScale runs one untraced build for the overhead baseline, then
// one traced build. No public boundary reaches inside NewWorld, so its
// setup is attributed by the CPU profile and MemStats.
func traceScale(o opts, r *result, cfg core.Config) *result {
	_, base := buildScale(r, cfg, nil, nil, 0)
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
	w, it := buildScale(r, cfg, tr, led, win)
	wall := led.end(win)
	window := deltaSince(m0)
	perr := cpu.stop(r)
	terr := tr.finish()
	if perr != nil || terr != nil {
		r.check(false, "traced scale: %v %v", perr, terr)
		return r
	}
	led.platform(tr.agg, "run", 0, 0)
	led.report(r, wall, "window", "run")
	r.setTelemetry(tr)
	r.set(r.layer, "core.accounts", float64(w.Plat.NumAccounts()), "count", 1)
	runtime.KeepAlive(w)
	r.set(r.layer, "go.alloc_mib_setup", float64(it.setupMem.allocated)/mib, "MiB", 1)
	r.set(r.layer, "go.gc_cycles_setup", float64(it.setupMem.gcCycles), "count", 1)
	r.setRuntime(window)
	r.set(r.layer, "trace.overhead_ratio", (it.setup+it.run).Seconds()/(base.setup+base.run).Seconds(), "ratio", 1)
	if err := led.writeSpans("scale", o.seed); err != nil {
		r.check(false, "write spans: %v", err)
	}
	r.completeLayers()
	return r
}
