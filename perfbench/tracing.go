package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"footsteps/internal/core"
	"footsteps/internal/platform"
	"footsteps/internal/telemetry"
	"footsteps/internal/trace"
	"footsteps/perfbench/measure"
)

// ledgerTolerance is the largest share of a workload's traced wall time
// that may stay unattributed (outside every measured layer) before the
// ledger check fails.
const ledgerTolerance = 0.15

// tracer is the traced pass's view into the program through hooks it
// already has: a telemetry registry (WithTelemetry) and a full-rate
// FTRC1 span stream (WithTrace) decoded as it is written, so no trace
// file is kept.
type tracer struct {
	reg  *telemetry.Registry
	tr   *trace.Tracer
	pw   *io.PipeWriter
	agg  *ftrcAgg
	done chan struct{}
	// start approximates the tracer's own wall origin (FTRC1 span
	// starts are relative to it): it is read as trace.New returns.
	start time.Time
}

func newTracer(seed uint64) (*tracer, error) {
	pr, pw := io.Pipe()
	t := &tracer{reg: telemetry.NewRegistry(), pw: pw, agg: &ftrcAgg{}, done: make(chan struct{})}
	go func() {
		defer close(t.done)
		t.agg.consume(pr)
	}()
	tr, err := trace.New(pw, seed, 1)
	if err != nil {
		pw.Close()
		<-t.done
		return nil, err
	}
	t.tr, t.start = tr, time.Now()
	t.agg.cutoff.Store(math.MaxInt64)
	t.agg.endCut.Store(math.MaxInt64)
	return t, nil
}

// markRun splits setup from run: requests outside step sections that
// start before this call are attributed to setup, later ones to run.
func (t *tracer) markRun() { t.agg.cutoff.Store(int64(time.Since(t.start))) }

// markEnd closes the measured window: requests starting after this call
// are not totalled.
func (t *tracer) markEnd() { t.agg.endCut.Store(int64(time.Since(t.start))) }

func (t *tracer) options() []core.Option {
	return []core.Option{core.WithTelemetry(t.reg), core.WithTrace(t.tr)}
}

// finish flushes the span stream and waits for the decoder.
func (t *tracer) finish() error {
	err := t.tr.Close()
	t.pw.Close()
	<-t.done
	if err != nil {
		return err
	}
	return t.agg.err
}

// ftrcAgg folds FTRC1 spans into per-layer totals as they stream by.
type ftrcAgg struct {
	requests, allowed int64
	reqWall           int64
	stages            [16]int64
	plan, apply       int64
	reqInApply        int64
	pending           [][2]int64 // request (start, wall) since the last section
	setupReq          int64      // wall of requests outside sections before cutoff
	cutoff, endCut    atomic.Int64
	err               error
}

func (a *ftrcAgg) consume(src io.Reader) {
	defer io.Copy(io.Discard, src) // never leave the writer blocked
	r, err := trace.NewReader(src)
	if err != nil {
		a.err = err
		return
	}
	for {
		sp, err := r.Next()
		if err == io.EOF {
			return
		}
		if err != nil {
			a.err = err
			return
		}
		a.observe(sp)
	}
}

func (a *ftrcAgg) observe(sp *trace.Span) {
	switch sp.Kind {
	case trace.KindRequest, trace.KindLogin:
		if sp.Start >= a.endCut.Load() {
			return
		}
		a.requests++
		if sp.Code == uint8(platform.OutcomeAllowed) {
			a.allowed++
		}
		a.reqWall += sp.Wall
		for _, st := range sp.Stages {
			a.stages[st.Stage] += st.Ns
		}
		if sp.Start < a.cutoff.Load() {
			a.setupReq += sp.Wall
		} else {
			a.pending = append(a.pending, [2]int64{sp.Start, sp.Wall})
		}
	case trace.KindSection:
		// A section span is written when its apply phase ends, after
		// every request it applied: pending requests that started inside
		// it ran inside the apply phase.
		for _, p := range a.pending {
			if p[0] >= sp.Start {
				a.reqInApply += p[1]
			}
		}
		a.pending = a.pending[:0]
		for _, st := range sp.Stages {
			if st.Stage == trace.StageApply {
				a.apply += st.Ns
			}
		}
	case trace.KindPlan:
		a.plan += sp.Wall
	}
}

// ledger attributes a traced window to layers. Spans are the
// benchmark's own timed calls into the program; aggregates are layer
// totals read from the program's hooks, each nested in a parent layer.
type ledger struct {
	origin time.Time
	spans  []measure.Span
	aggs   []agg
	nextID uint64
}

type agg struct {
	name, parent string
	ns           int64
}

func newLedger() *ledger { return &ledger{origin: time.Now()} }

// span records a timed interval under parent (0 for a root) and
// returns its ID for children.
func (l *ledger) span(name string, parent uint64, req uint64, start, end time.Time) uint64 {
	l.nextID++
	l.spans = append(l.spans, measure.Span{ID: l.nextID, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(l.origin)), End: int64(end.Sub(l.origin))})
	return l.nextID
}

// begin opens a span now, for children to name as parent before it
// ends; end closes it.
func (l *ledger) begin(name string, parent uint64) uint64 {
	now := time.Now()
	return l.span(name, parent, 0, now, now)
}

func (l *ledger) end(id uint64) time.Duration {
	sp := &l.spans[id-1]
	sp.End = int64(time.Since(l.origin))
	return time.Duration(sp.End - sp.Start)
}

// time runs f as a span.
func (l *ledger) time(name string, parent uint64, f func()) {
	t0 := time.Now()
	f()
	l.span(name, parent, 0, t0, time.Now())
}

func (l *ledger) add(name, parent string, ns int64) {
	l.aggs = append(l.aggs, agg{name: name, parent: parent, ns: ns})
}

// platform nests the FTRC1 totals: plan and apply inside run, requests
// inside apply, setup or run, stages inside requests. ipguard and
// appendNs are the benchmark's own per-call timers, which run inside
// the gatekeep and emit stages.
func (l *ledger) platform(a *ftrcAgg, run string, ipguard, appendNs int64) {
	l.add("step.plan", run, a.plan)
	l.add("step.apply", run, a.apply)
	l.add("platform.request", "step.apply", a.reqInApply)
	l.add("platform.request", "core.setup", a.setupReq)
	l.add("platform.request", run, a.reqWall-a.reqInApply-a.setupReq)
	for st := trace.StagePreflight; st < trace.StagePlan; st++ {
		l.add("platform.stage."+st.String(), "platform.request", a.stages[st])
	}
	l.add("detection.ipguard", "platform.stage.gatekeep", ipguard)
	l.add("durable.append", "platform.stage.emit", appendNs)
}

// selfTimes returns each layer's self time in ns.
func (l *ledger) selfTimes() map[string]int64 {
	self := measure.SelfTimes(l.spans)
	for _, a := range l.aggs {
		self[a.name] += a.ns
		self[a.parent] -= a.ns
	}
	return self
}

// report adds the ledger's per-layer metrics: unattributed share (self
// time of the root window and of the named container spans, which no
// layer claims) and each layer's self time in seconds.
func (l *ledger) report(r *result, wall time.Duration, containers ...string) map[string]int64 {
	self := l.selfTimes()
	var unattributed int64
	for _, c := range containers {
		unattributed += self[c]
	}
	u := ratio(float64(unattributed), float64(wall))
	r.set(r.layer, "ledger.unattributed_ratio", u, "ratio", 1)
	if u > ledgerTolerance || u < -ledgerTolerance {
		r.fail("ledger: %.1f%% of traced wall time unattributed (tolerance %.0f%%)", 100*u, 100*ledgerTolerance)
	}
	r.attempted++
	stage := func(name string) float64 { return float64(self["platform.stage."+name]) / 1e9 }
	for _, st := range []string{"preflight", "session", "ratelimit", "gatekeep", "apply", "telemetry", "emit"} {
		r.set(r.layer, "platform.stage."+st+"_s", stage(st), "s", 1)
	}
	return self
}

// writeSpans writes the benchmark's spans and the ledger's self times
// under .bench_build/trace, where a traced run leaves them.
func (l *ledger) writeSpans(workload string, seed uint64) error {
	dir := filepath.Join(".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, sp := range l.spans {
		if err := enc.Encode(sp); err != nil {
			return err
		}
	}
	self := l.selfTimes()
	names := make([]string, 0, len(self))
	for k := range self {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if err := enc.Encode(map[string]any{"layer": k, "self_ns": self[k]}); err != nil {
			return err
		}
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed)), buf.Bytes(), 0o644)
}

// timedGate wraps the platform's gatekeeper to time detection checks.
type timedGate struct {
	inner platform.Gatekeeper
	calls atomic.Int64
	ns    atomic.Int64
}

func (g *timedGate) Check(ev platform.Event) platform.Verdict {
	t0 := time.Now()
	v := g.inner.Check(ev)
	g.ns.Add(int64(time.Since(t0)))
	g.calls.Add(1)
	return v
}

// wrapGuard interposes a timer around the world's IP volume guard.
func wrapGuard(w *core.World) *timedGate {
	g := &timedGate{inner: w.Guard}
	if w.Guard != nil {
		w.Plat.SetGatekeeper(g)
	}
	return g
}

// cpuProfile is a CPU profile of the traced window.
type cpuProfile struct{ buf bytes.Buffer }

func startCPU() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	return p, nil
}

// cpuModules are the groups CPU samples are attributed to, by the
// package of the sampled leaf function.
var cpuModules = []string{"aas", "behavior", "platform", "socialgraph", "netsim", "detection", "eventio",
	"durable", "persistence", "server", "wire", "runtime", "core", "step", "clock", "trace", "telemetry",
	"time", "json", "net", "perfbench", "other"}

// stop ends profiling and reports each module's share of flat samples.
func (p *cpuProfile) stop(r *result) error {
	pprof.StopCPUProfile()
	leaves, err := leafFunctions(p.buf.Bytes())
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	counts := map[string]int64{}
	var total int64
	for fn, n := range leaves {
		counts[moduleOf(fn)] += n
		total += n
	}
	for _, m := range cpuModules {
		r.set(r.layer, "cpu."+m+"_share", ratio(float64(counts[m]), float64(total)), "ratio", int(total))
	}
	return nil
}

// moduleOf maps a fully qualified function name to a cpuModules group.
func moduleOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, "footsteps/internal/"):
		pkg := strings.TrimPrefix(fn, "footsteps/internal/")
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		for _, m := range cpuModules {
			if m == pkg {
				return m
			}
		}
		return "other"
	case strings.HasPrefix(fn, "footsteps/perfbench") || strings.HasPrefix(fn, "main."):
		return "perfbench"
	case strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") ||
		strings.HasPrefix(fn, "internal/runtime/") || strings.HasPrefix(fn, "gcWriteBarrier"):
		return "runtime"
	case strings.HasPrefix(fn, "time."):
		return "time" // wall-clock reads, mostly the tracing's own
	case strings.HasPrefix(fn, "encoding/json."):
		return "json"
	case strings.HasPrefix(fn, "net.") || strings.HasPrefix(fn, "net/") || strings.HasPrefix(fn, "syscall.") ||
		strings.HasPrefix(fn, "internal/poll."):
		return "net"
	}
	return "other"
}
