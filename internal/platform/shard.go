package platform

import (
	"sync"

	"footsteps/internal/telemetry"
)

// The platform's mutable per-account state — the account records
// themselves (credentials, profile, session epoch, posts, like counts)
// and the hourly rate-limit buckets — is partitioned into N lock-striped
// shards keyed by a stable hash of AccountID. Striping lets the parallel
// planning phase read different accounts without rendezvousing on one
// global RWMutex, and lets independent apply-path mutations proceed
// without false sharing of a single lock. The post→author index is one
// dense table under its own lock (postIndex, below).
//
// Shard count is a pure performance knob: the hash is a fixed function
// of the ID (never of the shard count's runtime environment), every
// lookup is exact-key, and nothing ever iterates a shard map in an
// order that reaches the event stream — so the FSEV1 bytes are
// identical at every shard count (enforced in internal/simtest).
//
// Lock-ordering rule (deadlock freedom): nameMu → account shard →
// post-index lock → socialgraph locks. Paths that need two locks of
// the same family take them in ascending shard-index order; no path
// acquires an earlier-ranked lock while holding a later-ranked one.

// DefaultShards is the stripe count used when Config.Shards is zero.
const DefaultShards = 8

// shardHash is a SplitMix64-style finalizer: a stable, well-mixed pure
// function of the 64-bit key. IDs are assigned densely from 1, so
// without mixing, consecutive accounts — which services enroll and act
// on in waves — would stripe into adjacent shards in lockstep.
func shardHash(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// normShards clamps a configured shard count to a usable value.
func normShards(n int) int {
	if n < 1 {
		return DefaultShards
	}
	return n
}

// shard is one stripe of account state plus the rate-limit buckets of
// the accounts it owns. Account records live in a struct-of-arrays
// table (table.go) indexed by dense rows; the limiter's buckets are
// parallel arrays over the same rows.
type shard struct {
	mu      sync.RWMutex
	tab     accountTable
	limiter *hourlyLimiter

	// contention counts lock acquisitions that found the stripe already
	// held (a failed TryLock/TryRLock before blocking). nil = telemetry
	// off; pure observer either way.
	contention *telemetry.Counter
}

func newShard() *shard {
	return &shard{limiter: newHourlyLimiter()}
}

// lock acquires the stripe's write lock, counting contention.
func (s *shard) lock() {
	if s.mu.TryLock() {
		return
	}
	s.contention.Inc()
	s.mu.Lock()
}

// rlock acquires the stripe's read lock, counting contention.
func (s *shard) rlock() {
	if s.mu.TryRLock() {
		return
	}
	s.contention.Inc()
	s.mu.RLock()
}

// shardFor returns the stripe owning the account.
func (p *Platform) shardFor(id AccountID) *shard {
	return p.shards[shardHash(uint64(id))%uint64(len(p.shards))]
}

// postIndex is the post→author index. Post IDs are minted densely from
// 1 in both graph modes (by the graph with GraphWrites on, by
// Platform.nextPost with it off), so the index is a slice indexed by
// PostID rather than a hash map: 4 bytes per post, no hashing, and no
// rehash garbage as it grows. Author 0 means the post does not exist or
// its author was deleted; AccountIDs count from 1 and fit uint32, since
// the graph refuses to mint past that range.
type postIndex struct {
	mu     sync.RWMutex
	author []uint32 // PostID → AccountID; 0 = absent
}

// set records pid's author; the caller holds mu for writing. Posts are
// minted in ID order, so the slice almost always grows by one slot at
// the end; the gap fill covers concurrent minting racing to the lock.
func (x *postIndex) set(pid PostID, author AccountID) {
	if n := int(pid) + 1 - len(x.author); n > 0 {
		x.author = append(x.author, make([]uint32, n)...)
	}
	x.author[pid] = uint32(author)
}

// get resolves pid to its live author; the caller holds mu.
func (x *postIndex) get(pid PostID) (AccountID, bool) {
	if pid >= PostID(len(x.author)) || x.author[pid] == 0 {
		return 0, false
	}
	return AccountID(x.author[pid]), true
}
