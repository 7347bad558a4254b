package step

import "testing"

// Steady-state allocation budgets for the tick hot path, enforced by the
// TestAllocBudget tests below. Budgets count allocations per RunInto
// call (one simulated tick section) with warm reusable Buffers. Raise a
// budget only with a profile showing why — see docs/PERFORMANCE.md.
const (
	// Warm Buffers cache both the intent slice and the emit closure, and
	// planning calls gen directly, so a warm call allocates nothing.
	allocBudgetRunInto    = 0
	allocBudgetChunksInto = 0
)

// TestAllocBudgetRunInto pins the per-tick allocation count of the
// intent/apply cycle when the caller supplies warm Buffers, with a nil
// pool and with a world's pool whose tracers are off.
func TestAllocBudgetRunInto(t *testing.T) {
	const shards = 8
	for _, tc := range []struct {
		name string
		pool *Pool
	}{{"nil", nil}, {"untraced", NewPool(nil, nil)}} {
		var b Buffers[int]
		sum := 0
		gen := func(shard int, emit func(int)) {
			for i := 0; i < 16; i++ {
				emit(shard*16 + i)
			}
		}
		apply := func(v int) { sum += v }
		// Warm the buffer to its steady capacity.
		RunInto(tc.pool, &b, shards, gen, apply)
		got := testing.AllocsPerRun(100, func() {
			RunInto(tc.pool, &b, shards, gen, apply)
		})
		if got > allocBudgetRunInto {
			t.Errorf("%s pool: step.RunInto allocates %.1f per tick over %d warm shards, budget %d — pooled intent buffer or cached emit closure regressed",
				tc.name, got, shards, allocBudgetRunInto)
		}
		if sum == 0 {
			t.Fatalf("%s pool: apply never ran; measurement is vacuous", tc.name)
		}
	}
}

// TestAllocBudgetChunksInto pins the shard-bounds recomputation: with a
// warm destination it must not allocate.
func TestAllocBudgetChunksInto(t *testing.T) {
	bounds := ChunksInto(nil, 1000, 16)
	if len(bounds) == 0 {
		t.Fatal("no bounds produced; measurement is vacuous")
	}
	got := testing.AllocsPerRun(100, func() {
		bounds = ChunksInto(bounds[:0], 1000, 16)
	})
	if got > allocBudgetChunksInto {
		t.Errorf("step.ChunksInto allocates %.1f/op into a warm buffer, budget %d",
			got, allocBudgetChunksInto)
	}
}
