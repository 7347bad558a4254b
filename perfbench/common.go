package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync"
	"time"

	"footsteps/perfbench/measure"
)

const mib = 1 << 20

// heapSampler tracks the peak live heap: the heap the collector found
// reachable, read at every cycle's end. The total heap peaks at up to
// twice that under the default GOGC, at points that depend on when
// cycles start, so a sampled total high-water mark reads 10-15% apart
// between runs where this does not. runtime/metrics reads do not stop
// the world.
type heapSampler struct {
	stopc chan struct{}
	done  chan struct{}
	mu    sync.Mutex
	peak  uint64
	n     int
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			h.mu.Lock()
			h.peak = max(h.peak, s[0].Value.Uint64())
			h.n++
			h.mu.Unlock()
			select {
			case <-h.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak in MiB and the sample count.
func (h *heapSampler) stop() (float64, int) {
	close(h.stopc)
	<-h.done
	return float64(h.peak) / mib, h.n
}

func (r *result) peakHeap(peak float64, n int) { r.set(r.e2e, "peak_heap_mib", peak, "MiB", n) }

// liveHeapMiB collects garbage and returns the live heap. Callers keep
// the measured state reachable across the call (runtime.KeepAlive).
func liveHeapMiB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / mib
}

// release drops garbage left by a previous setup so the next one starts
// from the same heap, and returns freed pages to the OS.
func release() {
	runtime.GC()
	debug.FreeOSMemory()
}

// memDelta is the Go runtime's work over a window.
type memDelta struct {
	gcCycles  uint32
	pause     time.Duration
	allocated uint64
}

func memStats() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func deltaSince(a runtime.MemStats) memDelta {
	b := memStats()
	return memDelta{gcCycles: b.NumGC - a.NumGC, pause: time.Duration(b.PauseTotalNs - a.PauseTotalNs),
		allocated: b.TotalAlloc - a.TotalAlloc}
}

// setRuntime reports the Go runtime's window cost as per-layer metrics.
func (r *result) setRuntime(d memDelta) {
	r.set(r.layer, "go.gc_cycles", float64(d.gcCycles), "count", 1)
	r.set(r.layer, "go.gc_pause_ms", ms(d.pause), "ms", int(d.gcCycles))
	r.set(r.layer, "go.alloc_mib", float64(d.allocated)/mib, "MiB", 1)
}

// latencies is a set of durations reported as a median and a tail.
type latencies []time.Duration

func (l latencies) floats() []float64 {
	out := make([]float64, len(l))
	for i, d := range l {
		out[i] = ms(d)
	}
	return out
}

// p50 returns the median in ms.
func (l latencies) p50() float64 {
	if len(l) == 0 {
		return 0
	}
	return measure.Quantile(measure.Sorted(l.floats()), 0.5)
}

// tail returns the highest percentile with ten samples beyond it, in
// ms, with that percentile (0 when there are too few samples).
func (l latencies) tail() (float64, float64) {
	p, ok := measure.HighestPercentile(len(l))
	if !ok {
		return 0, 0
	}
	return measure.Quantile(measure.Sorted(l.floats()), p/100), p
}

// pct returns percentile p in ms when samples beyond it carry it
// (samples, not len(l), counts the independent observations), or 0.
func (l latencies) pct(p float64, samples int) float64 {
	if len(l) == 0 || !measure.Supports(samples, p) {
		return 0
	}
	return measure.Quantile(measure.Sorted(l.floats()), p/100)
}

// setLatency reports a latency set: the median as the gated end-to-end
// metric, and the highest percentile with ten samples beyond it in the
// workload's own report (tails read 25-55% apart between runs on a
// shared 2-vCPU host, too far to gate).
func (r *result) setLatency(l latencies, what string) {
	r.set(r.e2e, "latency_p50_ms", l.p50(), "ms", len(l))
	v, p := l.tail()
	if p == 0 {
		r.fail("%s: %d samples cannot carry a median with ten beyond", what, len(l))
	}
	r.named["latency_tail_ms"] = metric{value: v, unit: "ms", n: len(l), note: fmt.Sprintf("p%g of %s", p, what)}
}

// medianSeconds is the median of durations, in seconds.
func medianSeconds(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = secs(d)
	}
	return measure.Median(xs)
}

func median(xs []float64) float64 { return measure.Median(xs) }
