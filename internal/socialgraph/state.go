package socialgraph

import (
	"fmt"
	"math"
	"time"
)

// Snapshot/restore support (see internal/persistence). The serialized
// form lists live accounts and posts in ascending ID order — the order
// of their rows — and stores only one side of each symmetric relation:
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
	st := &State{NextAcct: g.nextAcct, NextPost: g.nextPost}
	at := &g.accts
	for r := range at.live {
		if !at.live[r] {
			continue
		}
		st.Accounts = append(st.Accounts, AccountState{
			ID:        AccountID(r + 1),
			Created:   at.created[r],
			Followees: widen[AccountID](at.followees[r]),
			Posts:     append([]PostID(nil), at.posts[r]...),
		})
	}
	pt := &g.posts
	for r := range pt.live {
		if !pt.live[r] {
			continue
		}
		st.Posts = append(st.Posts, PostState{
			ID:       PostID(r + 1),
			Author:   AccountID(pt.authors[r]),
			Created:  pt.created[r],
			Likes:    widen[AccountID](pt.likes[r]),
			Comments: append([]Comment(nil), pt.comments[r]...),
		})
	}
	return st
}

// validate checks that every ID the state lists or references can index
// the tables: accounts in [1, NextAcct] and posts in [1, NextPost], each
// listed once in ascending order, within the uint32 ID space.
func (st *State) validate() error {
	if st.NextAcct > math.MaxUint32 || st.NextPost > math.MaxUint32 {
		return fmt.Errorf("socialgraph: restore: ID counters %d/%d exceed the uint32 ID space", st.NextAcct, st.NextPost)
	}
	acct := func(id AccountID) error {
		if id == 0 || id > st.NextAcct {
			return fmt.Errorf("socialgraph: restore: account ID %d outside [1, %d]", id, st.NextAcct)
		}
		return nil
	}
	post := func(pid PostID) error {
		if pid == 0 || pid > st.NextPost {
			return fmt.Errorf("socialgraph: restore: post ID %d outside [1, %d]", pid, st.NextPost)
		}
		return nil
	}
	var prevA AccountID
	for i := range st.Accounts {
		as := &st.Accounts[i]
		if err := acct(as.ID); err != nil {
			return err
		}
		if as.ID <= prevA {
			return fmt.Errorf("socialgraph: restore: account %d listed out of order", as.ID)
		}
		prevA = as.ID
		for _, f := range as.Followees {
			if err := acct(f); err != nil {
				return err
			}
		}
		for _, pid := range as.Posts {
			if err := post(pid); err != nil {
				return err
			}
		}
	}
	var prevP PostID
	for i := range st.Posts {
		ps := &st.Posts[i]
		if err := post(ps.ID); err != nil {
			return err
		}
		if ps.ID <= prevP {
			return fmt.Errorf("socialgraph: restore: post %d listed out of order", ps.ID)
		}
		prevP = ps.ID
		if err := acct(ps.Author); err != nil {
			return err
		}
		for _, who := range ps.Likes {
			if err := acct(who); err != nil {
				return err
			}
		}
	}
	return nil
}

// RestoreState overwrites the graph's state with a snapshot, rebuilding
// the derived sides of each symmetric relation. Derived sets come out
// sorted for free: accounts and posts are visited in ascending-ID
// order, so each append lands in order. A state whose IDs could not
// index the tables (see validate) can only come from a corrupt snapshot;
// it is rejected with an error before anything is allocated or touched.
// NextAcct and NextPost bound the tables' rows; the graph cannot check
// them against anything, so a caller holding other state that bounds
// them (core.RestoreWorld) checks them first.
func (g *Graph) RestoreState(st *State) error {
	g.guard.Check("socialgraph.RestoreState")
	if err := st.validate(); err != nil {
		return err
	}
	g.nextAcct = st.NextAcct
	g.nextPost = st.NextPost
	at, pt := &g.accts, &g.posts
	at.reset()
	pt.reset()
	if n := len(st.Accounts); n > 0 {
		at.grow(int(st.Accounts[n-1].ID))
	}
	for i := range st.Accounts {
		as := &st.Accounts[i]
		r := at.add(as.ID, as.Created)
		if n := len(as.Followees); n > 0 {
			fees := make([]uint32, n)
			for j, f := range as.Followees {
				fees[j] = uint32(f)
			}
			at.followees[r] = fees
		}
		if len(as.Posts) > 0 {
			at.posts[r] = append([]PostID(nil), as.Posts...)
		}
	}
	// Derive follower sets now that every account exists.
	for i := range st.Accounts {
		as := &st.Accounts[i]
		for _, f := range as.Followees {
			if r, ok := at.row(f); ok {
				at.followers[r] = append(at.followers[r], uint32(as.ID))
			}
		}
	}
	for i := range st.Posts {
		ps := &st.Posts[i]
		r := pt.add(ps.ID, ps.Author, ps.Created)
		if n := len(ps.Likes); n > 0 {
			likes := make([]uint32, n)
			for j, who := range ps.Likes {
				likes[j] = uint32(who)
			}
			pt.likes[r] = likes
		}
		if len(ps.Comments) > 0 {
			pt.comments[r] = append([]Comment(nil), ps.Comments...)
		}
		// Derive the per-account like sets and comment counts.
		pid := uint32(ps.ID)
		for _, who := range ps.Likes {
			if r, ok := at.row(who); ok {
				at.likes[r] = append(at.likes[r], pid)
			}
		}
		for _, c := range ps.Comments {
			if r, ok := at.row(c.Author); ok {
				at.bumpCommented(r, pid, 1)
			}
		}
	}
	return nil
}
