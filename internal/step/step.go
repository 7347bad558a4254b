// Package step runs the simulator's per-tick intent/apply cycle: plan,
// barrier, apply, all on the world loop's one goroutine.
//
// Work for one tick is partitioned into shards of independent actors.
// In the plan phase each shard runs a generation function, in shard
// order, that makes every stochastic decision for its actors — drawing
// only from per-actor forked RNG streams (rng.Fork) and only *reading*
// shared state — and emits intents. At the barrier every shard has
// planned; the apply phase then replays the intents in (shardID, emission
// seq) order, and it is the only place shared state (platform, social
// graph, event log) mutates. The pool's Guard turns a mutation from the
// plan phase into a panic.
//
// Because planning sees a frozen pre-tick snapshot and each actor draws
// from its own stream, the applied intent sequence — and therefore the
// event stream — is a pure function of the simulation seed and of the
// shard decomposition (ChunksInto with a fixed chunk size). See
// docs/DETERMINISM.md.
package step

import (
	"sync/atomic"
	"time"

	"footsteps/internal/telemetry"
	"footsteps/internal/trace"
)

// Pool carries what every RunInto of one world shares: its plan-phase
// guard and its observers. A nil *Pool is valid: it plans and applies
// the same way, with no guard and no tracing.
type Pool struct {
	tick  *telemetry.TickTracer
	spans *trace.Tracer
	guard Guard
}

// NewPool returns a pool reporting to tick (phase timings and intent
// counts) and spans (a section span with per-shard plan children,
// subject to the tracer's sampler). Either may be nil. Both are pure
// observers: nothing they record feeds back into RunInto's control
// flow, so tracing never changes the apply order or the event stream.
func NewPool(tick *telemetry.TickTracer, spans *trace.Tracer) *Pool {
	return &Pool{tick: tick, spans: spans}
}

// Guard asserts the single-writer rule: it is set while RunInto's plan
// phase runs, and every mutating entry point of the state it guards
// (platform, social graph) calls Check, which panics if the phase is on.
// One Guard belongs to one pool — one world — so parallel tests running
// many worlds never see each other's phases. A nil Guard checks nothing.
type Guard struct{ planning atomic.Bool }

// Check panics, naming op, when called during a plan phase.
func (g *Guard) Check(op string) {
	if g != nil && g.planning.Load() {
		panic("step: " + op + " mutates shared state during a plan phase")
	}
}

// Guard returns the pool's plan-phase guard (nil for a nil pool).
func (p *Pool) Guard() *Guard {
	if p == nil {
		return nil
	}
	return &p.guard
}

// Buffers is reusable intent scratch for RunInto. A caller that steps
// the same kind of intent every tick holds one Buffers per intent type
// and passes it to RunInto, which reuses the slice capacity and the
// emit closure across ticks instead of reallocating them per tick. The
// zero value is ready to use; a Buffers must not be copied after first
// use, nor shared by nested RunInto calls.
//
// Between ticks the slice is truncated, not zeroed: stale intent values
// stay reachable (keeping what they point at alive) until overwritten,
// but are never observable — RunInto truncates before planning, so no
// intent from a previous tick can reach apply. The reuse property in
// step_test.go and the golden streams in internal/simtest pin this.
type Buffers[T any] struct {
	buf  []T
	emit func(T)
}

// RunInto executes one tick's intent/apply cycle over n shards.
//
// gen(shard, emit) is called once per shard in [0, n), in shard order
// on the calling goroutine. It must treat shared simulation state as
// read-only and confine mutation to the shard's own actors and to
// emitted intents; all randomness must come from streams owned by the
// shard's actors. emit is only valid during that gen call.
//
// After every shard has planned, apply is invoked for every intent in
// (shardID, emission seq) order, which is emission order. apply is where
// shared state may mutate; the pool's Guard makes a mutation from gen
// panic.
//
// b must be non-nil. Buffer reuse is invisible to gen and apply — the
// apply sequence is byte-for-byte the one a fresh Buffers would produce.
func RunInto[T any](p *Pool, b *Buffers[T], n int, gen func(shard int, emit func(T)), apply func(T)) {
	if n <= 0 {
		return
	}
	var tick *telemetry.TickTracer
	var spans *trace.Tracer
	if p != nil {
		tick, spans = p.tick, p.spans
	}
	tick.SectionStart()
	sec := spans.StartSection(n)
	if b.emit == nil {
		b.emit = func(v T) { b.buf = append(b.buf, v) }
	}
	b.buf = b.buf[:0]
	plan(p.Guard(), b, n, gen, tick, sec)
	timed := tick.Enabled() || sec != nil
	var applyStart time.Time
	if timed {
		applyStart = time.Now()
	}
	for _, v := range b.buf {
		apply(v)
	}
	if timed {
		d := time.Since(applyStart)
		tick.Applied(d, len(b.buf))
		sec.End(d, len(b.buf))
	}
}

// plan runs every shard's generation in shard order with g set, and
// returns at the barrier. Shard i's intent count is how far it grew
// b.buf. Timing only writes observer state, so it cannot affect the
// bytes.
func plan[T any](g *Guard, b *Buffers[T], n int, gen func(int, func(T)), tick *telemetry.TickTracer, sec *trace.Section) {
	if g != nil {
		g.planning.Store(true)
		defer g.planning.Store(false) // also on a panic out of gen
	}
	if !tick.Enabled() && sec == nil {
		for i := 0; i < n; i++ {
			gen(i, b.emit)
		}
		return
	}
	for i := 0; i < n; i++ {
		before := len(b.buf)
		start := time.Now()
		gen(i, b.emit)
		d := time.Since(start)
		tick.ShardPlanned(d, len(b.buf)-before)
		sec.ShardDone(i, d, len(b.buf)-before)
	}
}

// ChunksInto partitions count items into shards of at most chunk items
// and returns the shard bounds as (lo, hi) pairs, overwriting dst and
// reusing its capacity. The shard decomposition — and hence the
// (shardID, seq) apply order and the per-shard plan spans — is a pure
// function of count and chunk, independent of the capacity dst carries
// over from an earlier tick.
func ChunksInto(dst [][2]int, count, chunk int) [][2]int {
	if count <= 0 {
		return dst[:0]
	}
	if chunk <= 0 {
		chunk = 1
	}
	dst = dst[:0]
	for lo := 0; lo < count; lo += chunk {
		hi := lo + chunk
		if hi > count {
			hi = count
		}
		dst = append(dst, [2]int{lo, hi})
	}
	return dst
}
