package step

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"footsteps/internal/rng"
	"footsteps/internal/telemetry"
	"footsteps/internal/trace"
)

// shardItems is what shard emits in collect: a deterministic
// pseudo-random number of items drawn from the shard's forked stream.
func shardItems(root *rng.RNG, shard int) []string {
	r := root.Fork(uint64(shard))
	n := r.Intn(7)
	out := make([]string, n)
	for k := range out {
		out[k] = fmt.Sprintf("s%d.%d:%d", shard, k, r.Uint64())
	}
	return out
}

// collect runs one intent/apply cycle through b where each shard emits
// shardItems, and returns the applied sequence.
func collect(b *Buffers[string], shards int, seed uint64) []string {
	root := rng.New(seed)
	var out []string
	RunInto(NewPool(nil, nil), b, shards, func(shard int, emit func(string)) {
		for _, v := range shardItems(root, shard) {
			emit(v)
		}
	}, func(v string) { out = append(out, v) })
	return out
}

// TestRunMergeOrderIndependentOfWorkers is the pool's core contract: the
// apply sequence is every shard's intents in (shardID, seq) order, and
// no history of the Buffers it runs through changes that. One Buffers
// reused across ticks whose shard count grows and shrinks must apply,
// on every tick, exactly what a fresh Buffers applies — a buffer that
// kept an earlier tick's intents, or a stale emit closure, would show
// here. (The name predates the removal of the pool's worker count.)
func TestRunMergeOrderIndependentOfWorkers(t *testing.T) {
	t.Parallel()
	check := func(seed uint64, shards uint8, ticks []uint8) bool {
		n := int(shards%33) + 1
		root := rng.New(seed)
		var want []string
		for i := 0; i < n; i++ {
			want = append(want, shardItems(root, i)...)
		}
		if !slices.Equal(want, collect(&Buffers[string]{}, n, seed)) {
			return false
		}
		// Grow past n, shrink to one shard, return to n, then follow
		// the generated shard counts.
		counts := []int{n, 2*n + 1, 1, n}
		for _, s := range ticks {
			counts = append(counts, int(s%33)+1)
		}
		var reused Buffers[string]
		for k, m := range counts {
			tickSeed := seed + uint64(k)
			fresh := collect(&Buffers[string]{}, m, tickSeed)
			if !slices.Equal(fresh, collect(&reused, m, tickSeed)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// goid returns the calling goroutine's ID, parsed from its stack header.
func goid() int {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	f := strings.Fields(string(buf))
	if len(f) >= 2 && f[0] == "goroutine" {
		if id, err := strconv.Atoi(f[1]); err == nil {
			return id
		}
	}
	panic("step: unparsable stack header " + string(buf))
}

// TestRunPlansInShardOrderOnCaller: gen runs exactly once per shard, in
// shard order, on the goroutine that called RunInto.
func TestRunPlansInShardOrderOnCaller(t *testing.T) {
	t.Parallel()
	const shards = 12
	caller := goid()
	for _, p := range []*Pool{nil, NewPool(nil, nil)} {
		var order []int
		RunInto(p, &Buffers[int]{}, shards, func(shard int, emit func(int)) {
			if g := goid(); g != caller {
				t.Errorf("shard %d planned on goroutine %d, caller is %d", shard, g, caller)
			}
			order = append(order, shard)
		}, func(int) {})
		want := make([]int, shards)
		for i := range want {
			want[i] = i
		}
		if !slices.Equal(order, want) {
			t.Fatalf("pool %v: gen calls %v, want each shard once in order %v", p, order, want)
		}
	}
}

// TestRunBarrierBeforeApply: no apply may run before every shard has
// generated (generation must observe the pre-tick snapshot).
func TestRunBarrierBeforeApply(t *testing.T) {
	t.Parallel()
	generated := 0
	const shards = 50
	RunInto(NewPool(nil, nil), &Buffers[int]{}, shards, func(shard int, emit func(int)) {
		generated++
		emit(shard)
	}, func(int) {
		if generated != shards {
			t.Errorf("apply ran with only %d/%d shards generated", generated, shards)
		}
	})
}

// TestRunAppliesSerially: apply must never run concurrently with itself,
// and every emitted intent is applied once.
func TestRunAppliesSerially(t *testing.T) {
	t.Parallel()
	inApply := 0
	applied := 0
	RunInto(NewPool(nil, nil), &Buffers[int]{}, 40, func(shard int, emit func(int)) {
		for k := 0; k < 5; k++ {
			emit(shard*10 + k)
		}
	}, func(int) {
		if inApply++; inApply != 1 {
			t.Error("concurrent apply")
		}
		applied++
		inApply--
	})
	if applied != 40*5 {
		t.Fatalf("applied %d intents, want %d", applied, 40*5)
	}
}

// TestNilPoolRunsInline: a nil *Pool runs the same cycle, unguarded.
func TestNilPoolRunsInline(t *testing.T) {
	t.Parallel()
	var p *Pool
	if p.Guard() != nil {
		t.Fatal("nil pool has a guard")
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

// TestTracerObservesRun: the tick tracer and the span tracer record the
// section, each shard's own intent count and the applied total, and
// identical generation happens with them on. Shard i emits i intents,
// so a count that accumulated across shards would show in the sums.
func TestTracerObservesRun(t *testing.T) {
	t.Parallel()
	reg := telemetry.NewRegistry()
	var spans bytes.Buffer
	tr, err := trace.New(&spans, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool(telemetry.NewTickTracer(reg), tr)
	const shards = 6
	sum := 0
	RunInto(p, &Buffers[int]{}, shards, func(shard int, emit func(int)) {
		for k := 0; k < shard; k++ {
			emit(shard)
		}
	}, func(v int) { sum += v })
	if want := 1*1 + 2*2 + 3*3 + 4*4 + 5*5; sum != want {
		t.Fatalf("applied sum %d, want %d", sum, want)
	}
	const intents = 0 + 1 + 2 + 3 + 4 + 5
	snap := reg.Snapshot()
	if snap.Counters["step.sections"] != 1 {
		t.Fatalf("sections = %d", snap.Counters["step.sections"])
	}
	if snap.Counters["step.shards"] != shards {
		t.Fatalf("shards = %d", snap.Counters["step.shards"])
	}
	if snap.Counters["step.intents"] != intents {
		t.Fatalf("intents = %d", snap.Counters["step.intents"])
	}
	if h := snap.Histograms["step.plan.shard.intents"]; h.Count != shards || h.Sum != intents {
		t.Fatalf("per-shard intents histogram: count %d sum %d, want %d and %d", h.Count, h.Sum, shards, intents)
	}
	if snap.Histograms["step.plan.shard.ns"].Count != shards {
		t.Fatalf("plan histogram count = %d", snap.Histograms["step.plan.shard.ns"].Count)
	}
	if snap.Histograms["step.apply.ns"].Count != 1 {
		t.Fatalf("apply histogram count = %d", snap.Histograms["step.apply.ns"].Count)
	}

	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := trace.NewReader(&spans)
	if err != nil {
		t.Fatal(err)
	}
	var section int64 = -1
	var plans []int64
	for {
		sp, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		switch sp.Kind {
		case trace.KindSection:
			section = sp.Value
		case trace.KindPlan:
			plans = append(plans, sp.Value)
		}
	}
	if section != intents || !slices.Equal(plans, []int64{0, 1, 2, 3, 4, 5}) {
		t.Fatalf("spans: section value %d, plan values %v; want %d and each shard's own count", section, plans, intents)
	}
}
