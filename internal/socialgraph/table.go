package socialgraph

import (
	"math"
	"slices"
	"sort"
	"time"
)

// Struct-of-arrays storage for the graph's two record families: one
// acctTable and one postTable, each a set of parallel slices. The graph
// mints AccountIDs and PostIDs densely from 1, so an ID's row is ID − 1
// and no ID→row map is needed. Follow adjacency, like sets, and comment tallies are sorted []uint32
// chunks instead of map[ID]struct{} sets — 4 bytes per edge endpoint
// and zero per-set header cost beyond one slice, where each map cost
// ~48 B empty and ~50 B per element. IDs fit uint32 because the graph
// mints them sequentially from 1 and the minting paths enforce the
// bound (see CreateAccount / AddPost).
//
// Rows are never recycled: DeleteAccount tombstones the row (live
// false, adjacency released) so the ID can keep resolving to "gone"
// forever. A restore leaves dead rows for the IDs a snapshot omits
// (deleted accounts and posts), so the layout survives a checkpoint. Sorted-set
// mutation is O(degree) memmove — fine for the honeypot-scale studies
// that run with GraphWrites on; the population-scale business sim
// keeps GraphWrites off and never mutates adjacency.

// u32 narrows a sequentially minted ID, whose bound the minting path
// already enforces.
func u32(x uint64) uint32 {
	if x > math.MaxUint32 {
		panic("socialgraph: ID exceeds uint32 range")
	}
	return uint32(x)
}

// insertSorted adds v to sorted set s, reporting false (and the
// unchanged set) when already present.
func insertSorted(s []uint32, v uint32) ([]uint32, bool) {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	if i < len(s) && s[i] == v {
		return s, false
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s, true
}

// removeSorted deletes v from sorted set s, reporting false when absent.
func removeSorted(s []uint32, v uint32) ([]uint32, bool) {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	if i >= len(s) || s[i] != v {
		return s, false
	}
	return append(s[:i], s[i+1:]...), true
}

// containsSorted reports whether sorted set s holds v.
func containsSorted(s []uint32, v uint32) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	return i < len(s) && s[i] == v
}

// pidCount is one per-account comment tally: how many comments the
// account has on post pid. Kept sorted by pid.
type pidCount struct {
	pid uint32
	n   int32
}

// acctTable holds the account rows; row r is AccountID r+1.
type acctTable struct {
	live  []bool
	nLive int

	created   []time.Time
	followers [][]uint32 // sorted AccountIDs following this row
	followees [][]uint32 // sorted AccountIDs this row follows
	posts     [][]PostID // creation order
	likes     [][]uint32 // sorted PostIDs this row liked
	commented [][]pidCount
}

// row returns id's row if the account is live. ID 0 wraps past every
// row, so it is absent like any ID beyond the end.
func (t *acctTable) row(id AccountID) (uint32, bool) {
	r := uint64(id) - 1
	if r >= uint64(len(t.live)) || !t.live[r] {
		return 0, false
	}
	return uint32(r), true
}

// add appends the row for id, padding any skipped IDs with dead rows.
// IDs must arrive in ascending order.
func (t *acctTable) add(id AccountID, now time.Time) uint32 {
	r := int(id) - 1
	if r < len(t.live) {
		panic("socialgraph: account created twice")
	}
	for len(t.live) <= r {
		t.live = append(t.live, false)
		t.created = append(t.created, time.Time{})
		t.followers = append(t.followers, nil)
		t.followees = append(t.followees, nil)
		t.posts = append(t.posts, nil)
		t.likes = append(t.likes, nil)
		t.commented = append(t.commented, nil)
	}
	t.live[r] = true
	t.nLive++
	t.created[r] = now
	return uint32(r)
}

// grow pre-sizes the table for n more rows.
func (t *acctTable) grow(n int) {
	t.live = slices.Grow(t.live, n)
	t.created = slices.Grow(t.created, n)
	t.followers = slices.Grow(t.followers, n)
	t.followees = slices.Grow(t.followees, n)
	t.posts = slices.Grow(t.posts, n)
	t.likes = slices.Grow(t.likes, n)
	t.commented = slices.Grow(t.commented, n)
}

// tombstone marks row r deleted and releases its per-row collections.
func (t *acctTable) tombstone(r uint32) {
	t.live[r] = false
	t.nLive--
	t.followers[r] = nil
	t.followees[r] = nil
	t.posts[r] = nil
	t.likes[r] = nil
	t.commented[r] = nil
}

func (t *acctTable) reset() {
	t.live = t.live[:0]
	t.nLive = 0
	t.created = t.created[:0]
	t.followers = t.followers[:0]
	t.followees = t.followees[:0]
	t.posts = t.posts[:0]
	t.likes = t.likes[:0]
	t.commented = t.commented[:0]
}

// bumpCommented adds delta to row r's tally for pid, dropping the entry
// when it reaches zero.
func (t *acctTable) bumpCommented(r uint32, pid uint32, delta int32) {
	cs := t.commented[r]
	i := sort.Search(len(cs), func(i int) bool { return cs[i].pid >= pid })
	if i < len(cs) && cs[i].pid == pid {
		cs[i].n += delta
		if cs[i].n <= 0 {
			t.commented[r] = append(cs[:i], cs[i+1:]...)
		}
		return
	}
	if delta <= 0 {
		return
	}
	cs = append(cs, pidCount{})
	copy(cs[i+1:], cs[i:])
	cs[i] = pidCount{pid: pid, n: delta}
	t.commented[r] = cs
}

// postTable holds the post rows; row r is PostID r+1.
type postTable struct {
	live []bool

	authors  []uint32
	created  []time.Time
	likes    [][]uint32 // sorted AccountIDs that liked this row
	comments [][]Comment
}

func (t *postTable) row(pid PostID) (uint32, bool) {
	r := uint64(pid) - 1
	if r >= uint64(len(t.live)) || !t.live[r] {
		return 0, false
	}
	return uint32(r), true
}

// add appends the row for pid, padding any skipped IDs with dead rows.
// IDs must arrive in ascending order.
func (t *postTable) add(pid PostID, author AccountID, now time.Time) uint32 {
	r := int(pid) - 1
	if r < len(t.live) {
		panic("socialgraph: post created twice")
	}
	for len(t.live) <= r {
		t.live = append(t.live, false)
		t.authors = append(t.authors, 0)
		t.created = append(t.created, time.Time{})
		t.likes = append(t.likes, nil)
		t.comments = append(t.comments, nil)
	}
	t.live[r] = true
	t.authors[r] = u32(uint64(author))
	t.created[r] = now
	return uint32(r)
}

func (t *postTable) tombstone(r uint32) {
	t.live[r] = false
	t.authors[r] = 0
	t.likes[r] = nil
	t.comments[r] = nil
}

func (t *postTable) reset() {
	t.live = t.live[:0]
	t.authors = t.authors[:0]
	t.created = t.created[:0]
	t.likes = t.likes[:0]
	t.comments = t.comments[:0]
}
