package socialgraph

import (
	"sort"
	"time"
)

// Snapshot/restore support (see internal/persistence). The serialized
// form is shard-independent — accounts and posts are flattened and
// sorted by ID — and stores only one side of each symmetric relation:
// follower sets, per-account like sets, and per-account comment counts
// are derived on restore from followee sets, post like sets, and post
// comment lists respectively. The in-memory adjacency is kept sorted,
// so flattening is a straight widening copy. Both operations run on the
// quiescent single timeline (day boundaries), never under concurrent
// mutation.

// State is the complete mutable state of a Graph.
type State struct {
	NextAcct AccountID
	NextPost PostID
	Accounts []AccountState
	Posts    []PostState
}

// AccountState is one account, flattened.
type AccountState struct {
	ID        AccountID
	Created   time.Time
	Followees []AccountID // sorted
	Posts     []PostID    // creation order
}

// PostState is one post, flattened.
type PostState struct {
	ID       PostID
	Author   AccountID
	Created  time.Time
	Likes    []AccountID // sorted
	Comments []Comment   // posting order
}

// SnapshotState captures the graph's complete mutable state.
func (g *Graph) SnapshotState() *State {
	g.idMu.Lock()
	st := &State{NextAcct: g.nextAcct, NextPost: g.nextPost}
	g.idMu.Unlock()
	for _, s := range g.ashards {
		s.rlock()
		for r := uint32(0); int(r) < len(s.tab.live); r++ {
			if !s.tab.live[r] {
				continue
			}
			st.Accounts = append(st.Accounts, AccountState{
				ID:        AccountID(s.tab.ids.ID(r)),
				Created:   s.tab.created[r],
				Followees: widen[AccountID](s.tab.followees[r]),
				Posts:     append([]PostID(nil), s.tab.posts[r]...),
			})
		}
		s.mu.RUnlock()
	}
	sort.Slice(st.Accounts, func(i, j int) bool { return st.Accounts[i].ID < st.Accounts[j].ID })
	for _, s := range g.pshards {
		s.rlock()
		for r := uint32(0); int(r) < len(s.tab.live); r++ {
			if !s.tab.live[r] {
				continue
			}
			st.Posts = append(st.Posts, PostState{
				ID:       PostID(s.tab.ids.ID(r)),
				Author:   AccountID(s.tab.authors[r]),
				Created:  s.tab.created[r],
				Likes:    widen[AccountID](s.tab.likes[r]),
				Comments: append([]Comment(nil), s.tab.comments[r]...),
			})
		}
		s.mu.RUnlock()
	}
	sort.Slice(st.Posts, func(i, j int) bool { return st.Posts[i].ID < st.Posts[j].ID })
	return st
}

// RestoreState overwrites the graph's state with a snapshot, rebuilding
// the derived sides of each symmetric relation. Derived sets come out
// sorted for free: accounts and posts are visited in ascending-ID
// order, so each append lands in order.
func (g *Graph) RestoreState(st *State) {
	g.idMu.Lock()
	g.nextAcct = st.NextAcct
	g.nextPost = st.NextPost
	g.idMu.Unlock()
	per := ShardCapacity(len(st.Accounts), len(g.ashards))
	for _, s := range g.ashards {
		s.lock()
		s.tab.reset()
		s.tab.grow(per)
		s.mu.Unlock()
	}
	for _, s := range g.pshards {
		s.lock()
		s.tab.reset()
		s.mu.Unlock()
	}
	for i := range st.Accounts {
		as := &st.Accounts[i]
		s := g.ashard(as.ID)
		s.lock()
		r := s.tab.add(as.ID, as.Created)
		if n := len(as.Followees); n > 0 {
			fees := make([]uint32, n)
			for j, f := range as.Followees {
				fees[j] = u32(uint64(f))
			}
			s.tab.followees[r] = fees
		}
		if len(as.Posts) > 0 {
			s.tab.posts[r] = append([]PostID(nil), as.Posts...)
		}
		s.mu.Unlock()
	}
	// Derive follower sets now that every account exists.
	for i := range st.Accounts {
		as := &st.Accounts[i]
		for _, f := range as.Followees {
			s := g.ashard(f)
			s.lock()
			if r, ok := s.tab.row(f); ok {
				s.tab.followers[r] = append(s.tab.followers[r], u32(uint64(as.ID)))
			}
			s.mu.Unlock()
		}
	}
	for i := range st.Posts {
		ps := &st.Posts[i]
		s := g.pshard(ps.ID)
		s.lock()
		r := s.tab.add(ps.ID, ps.Author, ps.Created)
		if n := len(ps.Likes); n > 0 {
			likes := make([]uint32, n)
			for j, who := range ps.Likes {
				likes[j] = u32(uint64(who))
			}
			s.tab.likes[r] = likes
		}
		if len(ps.Comments) > 0 {
			s.tab.comments[r] = append([]Comment(nil), ps.Comments...)
		}
		s.mu.Unlock()
		// Derive the per-account like sets and comment counts.
		pid := u32(uint64(ps.ID))
		for _, who := range ps.Likes {
			as := g.ashard(who)
			as.lock()
			if r, ok := as.tab.row(who); ok {
				as.tab.likes[r] = append(as.tab.likes[r], pid)
			}
			as.mu.Unlock()
		}
		for _, c := range ps.Comments {
			as := g.ashard(c.Author)
			as.lock()
			if r, ok := as.tab.row(c.Author); ok {
				as.tab.bumpCommented(r, pid, 1)
			}
			as.mu.Unlock()
		}
	}
}
