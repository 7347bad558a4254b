package aas

import (
	"footsteps/internal/platform"
	"footsteps/internal/step"
)

// plannedOp is one intended platform action for a customer, produced by
// the hourly planning phase and executed during the serial apply.
type plannedOp struct {
	c      *Customer
	action platform.ActionType
	target platform.AccountID
	post   platform.PostID
}

// lifeOp is one customer's planned daily lifecycle outcome: renewal,
// churn, and the human's own home login/post. Fields a service does not
// model simply stay false.
type lifeOp struct {
	c     *Customer
	renew bool
	churn bool
	login bool
	post  bool
}

// shardChunk is how many customers one planning shard covers. It is a
// fixed constant — never derived from the worker count — because the
// shard decomposition participates in the (shardID, seq) merge order
// that makes the post-merge event stream a pure function of the seed.
const shardChunk = 16

// tickScratch is an engine's reusable planning scratch for one intent
// type: the chunk bounds and the per-shard intent buffers runSharded
// fills every tick. A service holds one tickScratch per (tick, intent
// type) pair and hands it back each tick, so steady-state planning
// allocates nothing. The zero value is ready to use.
type tickScratch[T any] struct {
	chunks [][2]int
	bufs   step.Buffers[T]
}

// runSharded partitions actors into fixed-size shards and runs one
// intent/apply cycle over them on the service's pool: plan is invoked
// for every actor (concurrently across shards, in order within a
// shard) and must only read shared state and draw from the actor's own
// forked stream; apply receives the emitted intents serially in
// (shard, emission) order and is the only place shared state mutates.
//
// sc supplies the reused chunk/intent scratch; reuse is invisible to
// plan and apply (see step.RunInto).
func runSharded[T any](pool *step.Pool, sc *tickScratch[T], actors []*Customer, plan func(c *Customer, emit func(T)), apply func(T)) {
	sc.chunks = step.ChunksInto(sc.chunks, len(actors), shardChunk)
	bounds := sc.chunks
	step.RunInto(pool, &sc.bufs, len(bounds), func(si int, emit func(T)) {
		for _, c := range actors[bounds[si][0]:bounds[si][1]] {
			plan(c, emit)
		}
	}, apply)
}
