package simtest

import (
	"runtime"
	"testing"
	"time"

	"footsteps/internal/core"
)

// scaleConfig sizes a world by organic population: the services stay at
// unit-test scale (the business sim is driven by its customer pools,
// not the bystander crowd), so memory growth tracks the account tables,
// adjacency chunks, and per-account tallies the struct-of-arrays layout
// is accountable for.
func scaleConfig(accounts, days int) core.Config {
	cfg := core.TestConfig()
	cfg.Days = days
	cfg.OrganicPopulation = accounts
	cfg.Workers = 4
	return cfg
}

// scaleSmokeHeapBudget bounds runtime.HeapAlloc after the 100k-account,
// 7-day smoke world finishes, in bytes. The struct-of-arrays layout
// measures ~690 B/account live (accounts, posts, graph adjacency, and
// event-log bookkeeping together ≈ 66 MiB); the 256 MiB budget is ~3x
// headroom, enough to absorb GC timing but not a return to per-account
// heap objects. Raise only with a heap profile — see
// docs/PERFORMANCE.md.
const scaleSmokeHeapBudget = 256 << 20

// TestScaleSmoke is the CI scale arm: build a 100k-account world, run a
// week, and assert the live heap stays under budget. It guards the
// bytes-per-account density the 1M-account BENCH_SCALE run depends on,
// at a size every test sweep can afford (~0.6 s).
func TestScaleSmoke(t *testing.T) {
	start := time.Now()
	cfg := scaleConfig(100_000, 7)
	w := core.NewWorld(cfg)
	w.RunAll()
	if err := w.RunDays(cfg.Days); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	perAccount := ms.HeapAlloc / 100_000
	// Measured while the world is still live — without this the compiler
	// is free to let the GC collect w before ReadMemStats.
	defer runtime.KeepAlive(w)
	t.Logf("scale smoke: %d accounts, %d days in %v; heap_alloc %d MiB (%d B/account)",
		cfg.OrganicPopulation, cfg.Days, time.Since(start).Round(time.Millisecond),
		ms.HeapAlloc>>20, perAccount)
	if ms.HeapAlloc > scaleSmokeHeapBudget {
		t.Errorf("heap_alloc %d exceeds the %d-byte scale budget (%d B/account)",
			ms.HeapAlloc, uint64(scaleSmokeHeapBudget), perAccount)
	}
}

// constructionGarbageRatio bounds the bytes NewWorld allocates per byte
// of live heap the finished world retains. Tables built at their final
// size allocate little beyond what they keep (~1.06x measured at 100k
// accounts); slice doubling and map rehashing in the per-shard tables
// pushed it to ~2.6x. Raise only with an allocation profile of NewWorld —
// see docs/PERFORMANCE.md.
const constructionGarbageRatio = 1.5

// TestConstructionGarbage builds a 100k-account world and asserts its
// construction allocates at most constructionGarbageRatio times the
// live heap it leaves behind: the guard on NewWorld's pre-sized tables.
func TestConstructionGarbage(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation totals are inflated by race instrumentation; see race_test.go")
	}
	cfg := scaleConfig(100_000, 7)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	w := core.NewWorld(cfg)
	runtime.GC()
	runtime.ReadMemStats(&after)
	defer runtime.KeepAlive(w)
	allocated := after.TotalAlloc - before.TotalAlloc
	live := after.HeapAlloc - before.HeapAlloc
	ratio := float64(allocated) / float64(live)
	t.Logf("construction: %d MiB allocated, %d MiB live, ratio %.2f",
		allocated>>20, live>>20, ratio)
	if ratio > constructionGarbageRatio {
		t.Errorf("NewWorld allocated %.2fx the live heap it left (%d of %d bytes); budget %.2fx",
			ratio, allocated, live, constructionGarbageRatio)
	}
}
