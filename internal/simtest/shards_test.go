package simtest

import (
	"bytes"
	"fmt"
	"testing"

	"footsteps/internal/core"
	"footsteps/internal/telemetry"
)

// shardedConfig is smallConfig with an explicit lock-stripe count.
func shardedConfig(seed uint64, workers, shards int) core.Config {
	cfg := smallConfig(seed, workers)
	cfg.Shards = shards
	return cfg
}

// TestShardCountStreamInvariance is the tentpole contract for sharded
// platform state: the shard count is a pure concurrency knob, so the
// event stream must be byte-identical at every (shards, workers)
// combination — including the shards=1 degenerate case, which is the
// old single-lock layout, and the default-shard baseline the goldens
// pin. A divergence here means shard-dependent state leaked into
// observable output (a hash-ordered iteration, an ID allocation moved,
// a lock reordering that changed apply order).
func TestShardCountStreamInvariance(t *testing.T) {
	t.Parallel()
	want := Capture(smallConfig(1, 0))
	if n := countEvents(t, want); n < 1000 {
		t.Fatalf("baseline run produced only %d events; comparison would be vacuous", n)
	}
	for _, shards := range []int{1, 4, 16} {
		for _, workers := range []int{1, 4, 8} {
			got := Capture(shardedConfig(1, workers, shards))
			if !bytes.Equal(want, got) {
				t.Errorf("shards=%d workers=%d: stream diverged from default-shard sequential run: %s != %s (lengths %d vs %d)",
					shards, workers, Hash(got), Hash(want), len(got), len(want))
			}
		}
	}
}

// TestShardCountFaultedStreamInvariance repeats the invariance check
// with the mixed fault scenario active: fault verdicts, retry schedules,
// and storm-tightened rate limits must all be independent of how state
// is striped.
func TestShardCountFaultedStreamInvariance(t *testing.T) {
	t.Parallel()
	want := Capture(faultedConfig(1, 0))
	for _, shards := range []int{1, 16} {
		cfg := faultedConfig(1, 4)
		cfg.Shards = shards
		if got := Capture(cfg); !bytes.Equal(want, got) {
			t.Errorf("shards=%d: faulted stream diverged: %s != %s (lengths %d vs %d)",
				shards, Hash(got), Hash(want), len(got), len(want))
		}
	}
}

// TestShardContentionCountersExposed asserts the per-stripe lock
// contention counters registered by the platform and the social graph
// are present in the telemetry registry after a parallel run. The
// counter values themselves are scheduling-dependent (contention is
// timing), so only their existence is asserted — which is also the
// regression proving the TryLock instrumentation survives refactors.
func TestShardContentionCountersExposed(t *testing.T) {
	t.Parallel()
	cfg := shardedConfig(3, 4, 4)
	cfg.GraphWrites = true
	reg := telemetry.NewRegistry()
	cfg.Telemetry = reg
	Capture(cfg)
	snap := reg.Snapshot().Counters
	for i := 0; i < 4; i++ {
		for _, name := range []string{
			fmt.Sprintf("platform.shard.%02d.contention", i),
			fmt.Sprintf("socialgraph.shard.%02d.contention", i),
			fmt.Sprintf("socialgraph.postshard.%02d.contention", i),
		} {
			if _, ok := snap[name]; !ok {
				t.Errorf("counter %q not registered", name)
			}
		}
	}
	if g := reg.Snapshot().Gauges["platform.shards"]; g != 4 {
		t.Errorf("platform.shards gauge = %d, want 4", g)
	}
}
