package step

import (
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"testing/quick"

	"footsteps/internal/rng"
	"footsteps/internal/telemetry"
)

// collect runs one intent/apply cycle through b where each shard emits
// a deterministic pseudo-random number of items drawn from a forked
// stream, and returns the applied sequence.
func collect(b *Buffers[string], workers, shards int, seed uint64) []string {
	root := rng.New(seed)
	pool := NewPool(workers)
	var out []string
	RunInto(pool, b, shards, func(shard int, emit func(string)) {
		r := root.Fork(uint64(shard))
		n := r.Intn(7)
		for k := 0; k < n; k++ {
			emit(fmt.Sprintf("s%d.%d:%d", shard, k, r.Uint64()))
		}
	}, func(v string) { out = append(out, v) })
	return out
}

// TestRunMergeOrderIndependentOfWorkers is the pool's core contract: any
// worker count produces the identical apply sequence, and so does any
// history of the Buffers it runs through. One Buffers reused across
// ticks whose shard count grows and shrinks must apply, on every tick,
// exactly what a fresh Buffers applies — a shard slice that kept an
// earlier tick's intents, or a stale emit closure, would show here.
func TestRunMergeOrderIndependentOfWorkers(t *testing.T) {
	t.Parallel()
	check := func(seed uint64, shards uint8, workers uint8, ticks []uint8) bool {
		n := int(shards%33) + 1
		w := int(workers%16) + 2
		want := collect(&Buffers[string]{}, 1, n, seed)
		got := collect(&Buffers[string]{}, w, n, seed)
		if !slices.Equal(want, got) {
			return false
		}
		// Grow past n, shrink to one shard, return to n, then follow
		// the generated shard counts.
		counts := []int{n, 2*n + 1, 1, n}
		for _, s := range ticks {
			counts = append(counts, int(s%33)+1)
		}
		for _, workers := range []int{1, 4} {
			var reused Buffers[string]
			for k, m := range counts {
				tickSeed := seed + uint64(k)
				fresh := collect(&Buffers[string]{}, workers, m, tickSeed)
				if !slices.Equal(fresh, collect(&reused, workers, m, tickSeed)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestRunBarrierBeforeApply: no apply may run before every shard has
// generated (generation must observe the pre-tick snapshot).
func TestRunBarrierBeforeApply(t *testing.T) {
	t.Parallel()
	var generated atomic.Int32
	const shards = 50
	RunInto(NewPool(8), &Buffers[int]{}, shards, func(shard int, emit func(int)) {
		generated.Add(1)
		emit(shard)
	}, func(int) {
		if g := generated.Load(); g != shards {
			t.Errorf("apply ran with only %d/%d shards generated", g, shards)
		}
	})
}

// TestRunAppliesSerially: apply must never run concurrently with itself.
func TestRunAppliesSerially(t *testing.T) {
	t.Parallel()
	var inApply atomic.Int32
	applied := 0
	RunInto(NewPool(6), &Buffers[int]{}, 40, func(shard int, emit func(int)) {
		for k := 0; k < 5; k++ {
			emit(shard*10 + k)
		}
	}, func(int) {
		if inApply.Add(1) != 1 {
			t.Error("concurrent apply")
		}
		applied++
		inApply.Add(-1)
	})
	if applied != 40*5 {
		t.Fatalf("applied %d intents, want %d", applied, 40*5)
	}
}

// TestRunGenConcurrencyBounded: at most Workers() gens in flight.
func TestRunGenConcurrencyBounded(t *testing.T) {
	t.Parallel()
	const workers = 3
	var inGen, peak atomic.Int32
	RunInto(NewPool(workers), &Buffers[struct{}]{}, 64, func(shard int, emit func(struct{})) {
		n := inGen.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		inGen.Add(-1)
	}, func(struct{}) {})
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent gens, bound %d", p, workers)
	}
}

// TestNilPoolRunsInline: a nil *Pool is a valid sequential pool.
func TestNilPoolRunsInline(t *testing.T) {
	t.Parallel()
	var p *Pool
	if p.Workers() != 1 {
		t.Fatalf("nil pool workers = %d", p.Workers())
	}
	got := 0
	RunInto(p, &Buffers[int]{}, 5, func(shard int, emit func(int)) { emit(shard) }, func(v int) { got += v })
	if got != 0+1+2+3+4 {
		t.Fatalf("nil pool applied sum %d", got)
	}
}

// TestChunksCoverExactly: chunk bounds tile [0, count) with no gaps or
// overlaps regardless of parameters.
func TestChunksCoverExactly(t *testing.T) {
	t.Parallel()
	check := func(count uint16, chunk uint8) bool {
		n := int(count % 500)
		c := int(chunk % 40)
		bounds := ChunksInto(nil, n, c)
		next := 0
		for _, b := range bounds {
			if b[0] != next || b[1] <= b[0] || b[1] > n {
				return false
			}
			next = b[1]
		}
		return next == n || (n == 0 && bounds == nil)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestTracerObservesRun: a wired tracer records sections, shards, and
// intent counts on both the inline and pooled paths, and identical
// generation happens with or without it.
func TestTracerObservesRun(t *testing.T) {
	t.Parallel()
	for _, workers := range []int{1, 4} {
		reg := telemetry.NewRegistry()
		p := NewPool(workers)
		p.SetTracer(telemetry.NewTickTracer(reg))
		sum := 0
		RunInto(p, &Buffers[int]{}, 6, func(shard int, emit func(int)) {
			emit(shard)
			emit(shard * 10)
		}, func(v int) { sum += v })
		if want := (0 + 1 + 2 + 3 + 4 + 5) * 11; sum != want {
			t.Fatalf("workers=%d: applied sum %d, want %d", workers, sum, want)
		}
		snap := reg.Snapshot()
		if snap.Counters["step.sections"] != 1 {
			t.Fatalf("workers=%d: sections = %d", workers, snap.Counters["step.sections"])
		}
		if snap.Counters["step.shards"] != 6 {
			t.Fatalf("workers=%d: shards = %d", workers, snap.Counters["step.shards"])
		}
		if snap.Counters["step.intents"] != 12 {
			t.Fatalf("workers=%d: intents = %d", workers, snap.Counters["step.intents"])
		}
		if snap.Histograms["step.apply.ns"].Count != 1 {
			t.Fatalf("workers=%d: apply histogram count = %d", workers, snap.Histograms["step.apply.ns"].Count)
		}
	}
}
