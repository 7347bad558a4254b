package platform

import (
	"fmt"
	"sync"
	"testing"

	"footsteps/internal/clock"
	"footsteps/internal/netsim"
	"footsteps/internal/rng"
	"footsteps/internal/socialgraph"
)

// The platform has one writer. These tests drive many live sessions the
// way concurrent clients would — in an arbitrary, seeded interleaving —
// but on one goroutine, as the world loop does, and check that shared
// state still reconciles exactly with the event log. The one concurrent
// test, TestConcurrentReadersQuiescent, covers the other half of the
// contract: many plan-phase readers on a world whose writer is parked.
// CI runs it under -race.

func newConcurrencyPlatform(cfg Config) (*Platform, *netsim.Registry) {
	reg := netsim.NewRegistry()
	reg.Register(10, "res", "USA", netsim.KindResidential)
	sched := clock.NewScheduler(clock.New())
	return New(cfg, socialgraph.New(), reg, sched), reg
}

// interleave runs ops steps for each of n actors in a seeded random
// order: every step picks one actor that still has steps left and calls
// step(actor). Each actor's own steps stay in program order.
func interleave(seed uint64, n, ops int, step func(actor int)) {
	r := rng.New(seed)
	left := make([]int, n)
	var active []int
	for i := range left {
		left[i] = ops
		active = append(active, i)
	}
	for len(active) > 0 {
		k := r.Intn(len(active))
		a := active[k]
		step(a)
		if left[a]--; left[a] == 0 {
			active = append(active[:k], active[k+1:]...)
		}
	}
}

// TestConcurrentSessionsGraphMatchesEventLog: under an arbitrary
// interleaving of follow/unfollow traffic from many live sessions, every
// account's follower and following relations must equal what a replay
// of that account's own event sequence predicts. Each actor draws from
// its own stream, so per-actor log order is its program order and the
// replay is exact rather than merely plausible.
func TestConcurrentSessionsGraphMatchesEventLog(t *testing.T) {
	t.Parallel()
	cfg := DefaultConfig()
	cfg.GraphWrites = true
	cfg.PrivateHourlyLimit = 0 // unthrottled: every allowed action lands
	p, reg := newConcurrencyPlatform(cfg)

	const nActors, nTargets, opsPerActor = 8, 5, 200
	targetIDs := make([]AccountID, nTargets)
	for i := range targetIDs {
		id, err := p.RegisterAccount(fmt.Sprintf("tgt%d", i), "pw", Profile{PhotoCount: 1}, "USA")
		if err != nil {
			t.Fatal(err)
		}
		targetIDs[i] = id
	}
	sessions := make([]*Session, nActors)
	streams := make([]*rng.RNG, nActors)
	for i := range sessions {
		name := fmt.Sprintf("act%d", i)
		if _, err := p.RegisterAccount(name, "pw", Profile{PhotoCount: 1}, "USA"); err != nil {
			t.Fatal(err)
		}
		s, err := p.Login(name, "pw", ClientInfo{IP: reg.Allocate(10)})
		if err != nil {
			t.Fatal(err)
		}
		sessions[i] = s
		streams[i] = rng.New(uint64(i) + 1)
	}

	perActor := make(map[AccountID][]Event)
	p.Log().Subscribe(func(ev Event) {
		if ev.Type == ActionFollow || ev.Type == ActionUnfollow {
			perActor[ev.Actor] = append(perActor[ev.Actor], ev)
		}
	})

	interleave(42, nActors, opsPerActor, func(i int) {
		r := streams[i]
		tgt := targetIDs[r.Intn(len(targetIDs))]
		if r.Bool(0.6) {
			sessions[i].Do(Request{Action: ActionFollow, Target: tgt})
		} else {
			sessions[i].Do(Request{Action: ActionUnfollow, Target: tgt})
		}
	})

	for _, sess := range sessions {
		actor := sess.Account()
		if n := len(perActor[actor]); n != opsPerActor {
			t.Errorf("actor %d: %d follow/unfollow events, want %d", actor, n, opsPerActor)
		}
		following := make(map[AccountID]bool)
		for _, ev := range perActor[actor] {
			if ev.Outcome != OutcomeAllowed || ev.Duplicate {
				continue
			}
			switch ev.Type {
			case ActionFollow:
				following[ev.Target] = true
			case ActionUnfollow:
				delete(following, ev.Target)
			}
		}
		for _, tgt := range targetIDs {
			if got := p.Graph().Follows(actor, tgt); got != following[tgt] {
				t.Errorf("actor %d → target %d: graph says %v, event replay says %v",
					actor, tgt, got, following[tgt])
			}
		}
		if got := p.Graph().OutDegree(actor); got != len(following) {
			t.Errorf("actor %d: out-degree %d, replay predicts %d", actor, got, len(following))
		}
	}
	for _, tgt := range targetIDs {
		want := 0
		for _, sess := range sessions {
			if p.Graph().Follows(sess.Account(), tgt) {
				want++
			}
		}
		if got := p.Graph().InDegree(tgt); got != want {
			t.Errorf("target %d: in-degree %d, edge census says %d", tgt, got, want)
		}
	}
}

// TestConcurrentRateLimitAccountingStaysInBounds: with many sessions
// hammering a small hourly budget in an interleaved order, the
// limiter's buckets must never go negative or exceed the limit, and no
// account may land more allowed actions in the log than the budget
// permits.
func TestConcurrentRateLimitAccountingStaysInBounds(t *testing.T) {
	t.Parallel()
	const limit = 25
	cfg := DefaultConfig()
	cfg.GraphWrites = true
	cfg.PrivateHourlyLimit = limit
	p, reg := newConcurrencyPlatform(cfg)

	tgt, err := p.RegisterAccount("victim", "pw", Profile{PhotoCount: 2}, "USA")
	if err != nil {
		t.Fatal(err)
	}
	pid, ok := p.LatestPost(tgt)
	if !ok {
		t.Fatal("victim has no post")
	}

	const nActors, opsPerActor = 6, 100
	sessions := make([]*Session, nActors)
	streams := make([]*rng.RNG, nActors)
	for i := range sessions {
		name := fmt.Sprintf("spam%d", i)
		if _, err := p.RegisterAccount(name, "pw", Profile{PhotoCount: 1}, "USA"); err != nil {
			t.Fatal(err)
		}
		s, err := p.Login(name, "pw", ClientInfo{IP: reg.Allocate(10)})
		if err != nil {
			t.Fatal(err)
		}
		sessions[i] = s
		streams[i] = rng.New(uint64(i) + 99)
	}

	allowedCount := make(map[AccountID]int)
	limited := 0
	p.Log().Subscribe(func(ev Event) {
		switch {
		case ev.Outcome == OutcomeAllowed && !ev.Enforcement:
			allowedCount[ev.Actor]++
		case ev.Outcome == OutcomeRateLimited:
			limited++
		}
	})

	interleave(7, nActors, opsPerActor, func(i int) {
		switch streams[i].Intn(3) {
		case 0:
			sessions[i].Do(Request{Action: ActionLike, Post: pid})
		case 1:
			sessions[i].Do(Request{Action: ActionFollow, Target: tgt})
		default:
			sessions[i].Do(Request{Action: ActionUnfollow, Target: tgt})
		}
	})

	for _, sess := range sessions {
		if n := allowedCount[sess.Account()]; n > limit {
			t.Errorf("account %d landed %d allowed actions, budget is %d", sess.Account(), n, limit)
		}
	}
	if limited == 0 {
		t.Error("no request was rate limited; the bounds check is vacuous")
	}
	for r, hour := range p.limiter.hours {
		if hour == 0 {
			continue
		}
		if n := p.limiter.counts[r]; n < 0 || int(n) > limit {
			t.Errorf("limiter bucket for account %d holds %d, want within [0, %d]", r+1, n, limit)
		}
	}
}

// TestConcurrentReadersQuiescent runs every plan-phase read from eight
// goroutines at once on a world whose writer is parked, as plan workers
// do after the step barrier. Reads must not write anything shared: -race
// flags any that does, and every reader must see the same answers.
func TestConcurrentReadersQuiescent(t *testing.T) {
	t.Parallel()
	cfg := DefaultConfig()
	cfg.GraphWrites = true
	p, reg := newConcurrencyPlatform(cfg)
	var ids []AccountID
	var sessions []*Session
	for i := 0; i < 12; i++ {
		name := fmt.Sprintf("u%d", i)
		id, err := p.RegisterAccount(name, "pw", Profile{PhotoCount: 2}, "USA")
		if err != nil {
			t.Fatal(err)
		}
		s, err := p.Login(name, "pw", ClientInfo{IP: reg.Allocate(10)})
		if err != nil {
			t.Fatal(err)
		}
		ids, sessions = append(ids, id), append(sessions, s)
	}
	for i, s := range sessions {
		other := ids[(i+1)%len(ids)]
		s.Do(Request{Action: ActionFollow, Target: other})
		s.Do(Request{Action: ActionPost, Tags: []string{"l4l"}})
		if pid, ok := p.LatestPost(other); ok {
			s.Do(Request{Action: ActionLike, Post: pid})
		}
	}

	read := func() string {
		var out []byte
		var buf []PostID
		g := p.Graph()
		for _, id := range ids {
			pid, _ := p.LatestPost(id)
			author, _ := p.PostAuthor(pid)
			buf = p.AppendRecentByTag(buf[:0], "l4l", 8)
			out = fmt.Appendf(out, "%d:%v %v %d %d %d %v %d %v %.3f|", id,
				p.Exists(id), p.Posts(id), author, p.LikeCount(pid), len(buf),
				g.Follows(id, ids[0]), g.InDegree(id), g.Followers(id), g.EngagementRate(id))
		}
		return string(out)
	}
	want := read()
	var wg sync.WaitGroup
	got := make([]string, 8)
	for w := range got {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				got[w] = read()
			}
		}(w)
	}
	wg.Wait()
	for w, s := range got {
		if s != want {
			t.Errorf("reader %d saw %q, want %q", w, s, want)
		}
	}
}
