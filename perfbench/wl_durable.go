package main

import (
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"footsteps/internal/core"
	"footsteps/internal/durable"
	"footsteps/internal/platform"
)

// durableRun is one `footsteps run -durable` lifecycle followed by a
// simulated crash recovery.
type durableRun struct {
	setup, window time.Duration
	stalls        latencies // each daily checkpoint, which stops the loop
	recover       time.Duration
	resume        time.Duration
	restore       time.Duration
	snapshot      time.Duration // traced: World.Snapshot inside checkpoints
	snapBytes     int
	appendCalls   int64
	appendNs      int64
	logBytes      int64
	live          float64
	world         *core.World
}

// durableHooks are the traced pass's timers; nil when untraced.
type durableHooks struct {
	tr  *tracer
	led *ledger
	win uint64
}

// lifecycle runs the durable lifecycle on DefaultConfig in dir and
// checks its outputs: the reconstructed stream holds every emitted
// event, and a world restored from the last checkpoint snapshots back
// to the checkpoint's exact bytes.
func lifecycle(r *result, seed uint64, dir string, h *durableHooks) *durableRun {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	opt := durable.Options{Seed: cfg.Seed, Fingerprint: cfg.Fingerprint()}
	if h != nil {
		for _, o := range h.tr.options() {
			o(&cfg)
		}
		opt.Telemetry = h.tr.reg
	}
	fsys := durable.OSFS{}
	d := &durableRun{}
	var parent uint64
	span := func(name string, t0, t1 time.Time) {
		if h != nil {
			h.led.span(name, parent, 0, t0, t1)
		}
	}
	if h != nil {
		parent = h.win
	}

	t0 := time.Now()
	dlog, err := durable.Create(fsys, dir, opt)
	if err != nil {
		r.check(false, "durable: create: %v", err)
		return nil
	}
	w := core.NewWorld(cfg)
	var emitted int64
	if h == nil {
		w.Plat.Log().Subscribe(func(ev platform.Event) { emitted++; _ = dlog.Append(ev) })
	} else {
		w.Plat.Log().Subscribe(func(ev platform.Event) {
			emitted++
			a := time.Now()
			_ = dlog.Append(ev)
			d.appendNs += int64(time.Since(a))
		})
	}
	w.RunAll()
	t1 := time.Now()
	d.setup = t1.Sub(t0)
	span("core.setup", t0, t1)
	if h != nil {
		h.tr.markRun()
	}
	runtime.GC() // the window starts with no collection debt from setup
	w0 := time.Now()
	span("runtime.gc", t1, w0)

	var run uint64
	if h != nil {
		run = h.led.begin("run", parent)
	}
	err = w.RunDaysFunc(cfg.Days, func(day int) error {
		c0 := time.Now()
		var ckpt uint64
		if h != nil {
			ckpt = h.led.begin("durable.checkpoint", run)
		}
		cerr := dlog.Checkpoint(day, func(out io.Writer) error {
			s0 := time.Now()
			var buf bytes.Buffer
			err := w.Snapshot(&buf)
			d.snapBytes = buf.Len()
			if h != nil {
				h.led.span("persistence.snapshot", ckpt, 0, s0, time.Now())
				d.snapshot += time.Since(s0)
			}
			if err != nil {
				return err
			}
			_, err = out.Write(buf.Bytes())
			return err
		})
		if h != nil {
			h.led.end(ckpt)
		}
		d.stalls = append(d.stalls, time.Since(c0))
		if cerr != nil {
			return cerr
		}
		return dlog.Err()
	})
	if h != nil {
		h.led.end(run)
	}
	d.window = time.Since(w0)
	d.appendCalls = emitted
	cerr := dlog.Close()
	r.check(err == nil && cerr == nil, "durable: run: %v, close: %v", err, cerr)
	g0 := time.Now()
	d.live = liveHeapMiB()
	d.world = w
	g1 := time.Now()
	span("runtime.gc", g0, g1)

	n, err := durable.Reconstruct(fsys, dir, io.Discard)
	r.check(err == nil && n == uint64(emitted), "durable: reconstructed %d events (err %v), emitted %d", n, err, emitted)
	d.logBytes = dirBytes(dir)
	span("durable.reconstruct", g1, time.Now())

	// A simulated crash: recover from the directory alone.
	rc0 := time.Now()
	resumed, err := durable.Resume(fsys, dir, opt)
	rc1 := time.Now()
	if err != nil {
		r.check(false, "durable: resume: %v", err)
		return d
	}
	rec := resumed.Recovery()
	restored, err := core.RestoreWorld(cfg, bytes.NewReader(rec.Checkpoint))
	rc2 := time.Now()
	d.resume, d.restore, d.recover = rc1.Sub(rc0), rc2.Sub(rc1), rc2.Sub(rc0)
	if h != nil {
		rcv := h.led.span("recover", parent, 0, rc0, rc2)
		h.led.span("durable.resume", rcv, 0, rc0, rc1)
		h.led.span("persistence.restore", rcv, 0, rc1, rc2)
	}
	if err != nil {
		r.check(false, "durable: restore: %v", err)
		return d
	}
	var again bytes.Buffer
	s0 := time.Now()
	err = restored.Snapshot(&again)
	span("persistence.snapshot", s0, time.Now())
	r.check(err == nil && bytes.Equal(again.Bytes(), rec.Checkpoint),
		"durable: snapshot of the restored world differs from checkpoint day %d (%d vs %d bytes, err %v)",
		rec.CheckpointDay, again.Len(), len(rec.Checkpoint), err)
	r.check(rec.CheckpointDay == cfg.Days, "durable: recovered checkpoint day %d, want %d", rec.CheckpointDay, cfg.Days)
	if err := resumed.Close(); err != nil {
		r.check(false, "durable: close resumed log: %v", err)
	}
	return d
}

// dirBytes sums the sizes of the files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err == nil && !e.IsDir() {
			if info, ierr := e.Info(); ierr == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// runDurable runs the durable lifecycle while the window lasts (at
// least once), after extra timed setups for the setup_s median.
func runDurable(o opts) *result {
	r := newResult()
	if o.trace {
		return traceDurable(o, r)
	}
	var setups []time.Duration
	for i := 0; i < extraSetups; i++ {
		dir := filepath.Join(o.tmp, fmt.Sprintf("durable-setup-%d", i))
		t0 := time.Now()
		cfg := core.DefaultConfig()
		cfg.Seed = o.seed
		dlog, err := durable.Create(durable.OSFS{}, dir, durable.Options{Seed: cfg.Seed, Fingerprint: cfg.Fingerprint()})
		if err != nil {
			r.check(false, "durable: create: %v", err)
			return r
		}
		w := core.NewWorld(cfg)
		w.Plat.Log().Subscribe(func(ev platform.Event) { _ = dlog.Append(ev) })
		w.RunAll()
		setups = append(setups, time.Since(t0))
		_ = dlog.Close()
		os.RemoveAll(dir)
		release()
	}
	window := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	var (
		runs   []*durableRun
		stalls latencies
		rates  []float64
		recov  []time.Duration
		live   float64
	)
	for len(runs) < 1 || time.Since(start)+runs[len(runs)-1].window <= window {
		dir := filepath.Join(o.tmp, "durable")
		os.RemoveAll(dir)
		d := lifecycle(r, o.seed, dir, nil)
		os.RemoveAll(dir)
		if d == nil {
			return r
		}
		runs = append(runs, d)
		setups = append(setups, d.setup)
		stalls = append(stalls, d.stalls...)
		rates = append(rates, float64(len(d.stalls))/d.window.Seconds())
		recov = append(recov, d.recover)
		live = d.live
		runtime.KeepAlive(d.world)
		d.world = nil
		release()
	}
	r.set(r.e2e, "setup_s", medianSeconds(setups), "s", len(setups))
	r.set(r.e2e, "throughput_per_s", median(rates), "1/s", len(rates))
	r.setLatency(stalls, "checkpoint stall")
	r.set(r.e2e, "heap_live_mib", live, "MiB", 1)
	r.set(r.named, "sim_days_per_s", median(rates), "1/s", len(rates))
	r.set(r.named, "ckpt_stall_ms_p50", stalls.p50(), "ms", len(stalls))
	r.set(r.named, "recover_s", medianSeconds(recov), "s", len(recov))
	return r
}

// traceDurable runs one untraced lifecycle for the overhead baseline,
// then one traced lifecycle.
func traceDurable(o opts, r *result) *result {
	dir := filepath.Join(o.tmp, "durable")
	os.RemoveAll(dir)
	base := lifecycle(r, o.seed, dir, nil)
	os.RemoveAll(dir)
	if base == nil {
		return r
	}
	base.world = nil
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
	d := lifecycle(r, o.seed, dir, &durableHooks{tr: tr, led: led, win: win})
	wall := led.end(win)
	window := deltaSince(m0)
	os.RemoveAll(dir)
	perr := cpu.stop(r)
	terr := tr.finish()
	if d == nil || perr != nil || terr != nil {
		r.check(false, "traced durable: %v %v", perr, terr)
		return r
	}
	led.platform(tr.agg, "run", 0, d.appendNs)
	self := led.report(r, wall, "window", "run", "recover")
	r.setTelemetry(tr)
	stallTail, p := d.stalls.tail()
	r.set(r.layer, "durable.append_calls", float64(d.appendCalls), "count", 1)
	r.set(r.layer, "durable.append_s", float64(d.appendNs)/1e9, "s", int(d.appendCalls))
	r.set(r.layer, "durable.log_mib", float64(d.logBytes)/mib, "MiB", 1)
	r.set(r.layer, "durable.checkpoint_self_s", float64(self["durable.checkpoint"])/1e9, "s", len(d.stalls))
	r.set(r.layer, "durable.resume_s", d.resume.Seconds(), "s", 1)
	r.layer["durable.ckpt_stall_ms_tail"] = metric{value: stallTail, unit: "ms", n: len(d.stalls), note: fmt.Sprintf("p%g", p)}
	r.set(r.layer, "durable.ckpt_count", float64(len(d.stalls)), "count", 1)
	r.set(r.layer, "durable.recover_s", d.recover.Seconds(), "s", 1)
	r.set(r.layer, "persistence.snapshot_s", d.snapshot.Seconds(), "s", len(d.stalls))
	r.set(r.layer, "persistence.snap_mib", float64(d.snapBytes)/mib, "MiB", 1)
	r.set(r.layer, "persistence.restore_s", d.restore.Seconds(), "s", 1)
	r.set(r.layer, "core.accounts", float64(d.world.Plat.NumAccounts()), "count", 1)
	r.setRuntime(window)
	r.set(r.layer, "trace.overhead_ratio", d.window.Seconds()/base.window.Seconds(), "ratio", 1)
	if err := led.writeSpans("durable", o.seed); err != nil {
		r.check(false, "write spans: %v", err)
	}
	r.completeLayers()
	return r
}
