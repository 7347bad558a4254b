package socialgraph

import (
	"fmt"
	"math"
	"sync"

	"footsteps/internal/telemetry"
)

// The graph's state is partitioned into lock-striped shards: account
// records (follow adjacency, own-post lists, like/comment back-indexes)
// by a stable hash of AccountID, and post records (likes, comments) by
// the same hash of PostID. Shard count is a pure concurrency knob —
// the hash is a fixed function of the ID, lookups are exact-key, and no
// shard-map iteration order can reach observable output — so every
// result is identical at every shard count.
//
// Lock-ordering rule (deadlock freedom): account shards before post
// shards; within a family, ascending shard-index order. The ID-counter
// mutex is a leaf — held only to bump a counter, never while acquiring
// another lock. Platform locks rank strictly before all graph locks;
// see docs/ARCHITECTURE.md.

// defaultShards is the stripe count used by New.
const defaultShards = 8

// shardHash is a SplitMix64-style finalizer: a stable, well-mixed pure
// function of the 64-bit key, so densely assigned IDs don't stripe into
// adjacent shards in lockstep.
func shardHash(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// gShard is one stripe of account records, laid out struct-of-arrays
// (see table.go).
type gShard struct {
	mu  sync.RWMutex
	tab acctTable

	// contention counts acquisitions that found the stripe already held
	// (a failed TryLock/TryRLock before blocking). nil = telemetry off.
	contention *telemetry.Counter
}

func (s *gShard) lock() {
	if s.mu.TryLock() {
		return
	}
	s.contention.Inc()
	s.mu.Lock()
}

func (s *gShard) rlock() {
	if s.mu.TryRLock() {
		return
	}
	s.contention.Inc()
	s.mu.RLock()
}

// pShard is one stripe of post records, laid out struct-of-arrays
// (see table.go).
type pShard struct {
	mu         sync.RWMutex
	tab        postTable
	contention *telemetry.Counter
}

func (s *pShard) lock() {
	if s.mu.TryLock() {
		return
	}
	s.contention.Inc()
	s.mu.Lock()
}

func (s *pShard) rlock() {
	if s.mu.TryRLock() {
		return
	}
	s.contention.Inc()
	s.mu.RLock()
}

// ShardCapacity is how many rows each of shards stripes should reserve
// so that n accounts, spread by shardHash, fit without regrowing any
// stripe's tables: the even share plus slack for hash imbalance. The
// per-stripe count is binomial with standard deviation at most
// sqrt(share), so four of those (plus a floor for tiny worlds) leaves
// an overflow vanishingly unlikely and covers the few accounts a run
// registers after construction, at a cost of about 1% of a
// million-account table.
func ShardCapacity(n, shards int) int {
	if shards < 1 {
		shards = 1
	}
	share := (n + shards - 1) / shards
	return share + 4*int(math.Sqrt(float64(share))) + 64
}

// Reserve pre-sizes every account stripe for n more accounts (see
// ShardCapacity), so registering a known population allocates each
// stripe's tables once.
func (g *Graph) Reserve(n int) {
	if n <= 0 {
		return
	}
	per := ShardCapacity(n, len(g.ashards))
	for _, s := range g.ashards {
		s.lock()
		s.tab.grow(per)
		s.mu.Unlock()
	}
}

// aidx returns the index of the shard owning the account.
func (g *Graph) aidx(id AccountID) int {
	return int(shardHash(uint64(id)) % uint64(len(g.ashards)))
}

// pidx returns the index of the shard owning the post.
func (g *Graph) pidx(pid PostID) int {
	return int(shardHash(uint64(pid)) % uint64(len(g.pshards)))
}

// ashard returns the stripe owning the account.
func (g *Graph) ashard(id AccountID) *gShard { return g.ashards[g.aidx(id)] }

// pshard returns the stripe owning the post.
func (g *Graph) pshard(pid PostID) *pShard { return g.pshards[g.pidx(pid)] }

// lockAccounts write-locks the shards owning both accounts in canonical
// (ascending shard-index) order, taking one lock when they collide (hi
// is then nil). Pair with unlockAccounts. Returning the shards instead
// of an unlock closure keeps the per-edge mutation path (Follow,
// Unfollow) allocation-free.
func (g *Graph) lockAccounts(x, y AccountID) (lo, hi *gShard) {
	ix, iy := g.aidx(x), g.aidx(y)
	if ix == iy {
		s := g.ashards[ix]
		s.lock()
		return s, nil
	}
	if ix > iy {
		ix, iy = iy, ix
	}
	lo, hi = g.ashards[ix], g.ashards[iy]
	lo.lock()
	hi.lock()
	return lo, hi
}

// unlockAccounts releases locks taken by lockAccounts, in reverse order.
func unlockAccounts(lo, hi *gShard) {
	if hi != nil {
		hi.mu.Unlock()
	}
	lo.mu.Unlock()
}

// lockAll write-locks every shard in canonical order — account family
// then post family, ascending index within each. Reserved for the rare
// global cascade (DeleteAccount).
func (g *Graph) lockAll() func() {
	for _, s := range g.ashards {
		s.lock()
	}
	for _, s := range g.pshards {
		s.lock()
	}
	return func() {
		for i := len(g.pshards) - 1; i >= 0; i-- {
			g.pshards[i].mu.Unlock()
		}
		for i := len(g.ashards) - 1; i >= 0; i-- {
			g.ashards[i].mu.Unlock()
		}
	}
}

// WireTelemetry registers a contention counter per lock stripe
// (socialgraph.shard.NN.contention, socialgraph.postshard.NN.contention)
// in reg. Call during construction; nil is a no-op.
func (g *Graph) WireTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	for i, s := range g.ashards {
		s.contention = reg.Counter(fmt.Sprintf("socialgraph.shard.%02d.contention", i))
	}
	for i, s := range g.pshards {
		s.contention = reg.Counter(fmt.Sprintf("socialgraph.postshard.%02d.contention", i))
	}
}
