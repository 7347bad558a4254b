package platform

import (
	"slices"
	"sort"
	"time"
)

// accountTable is the platform's account records laid out
// struct-of-arrays: one slice per field, indexed by row. Accounts take
// their IDs from the graph, which mints them densely from 1, so an
// account's row is its ID − 1 and no ID→row map is needed. Compared with
// the map[AccountID]*account it replaced, the table stores an account in
// a handful of contiguous array cells instead of a heap object plus two
// maps — the difference between ~1 KB and ~200 B per account, which is
// what lets a million-account world fit in a few GB (see
// docs/PERFORMANCE.md, "Scaling to 1M accounts").
//
// Rows are never recycled: a deleted account keeps its row with
// deleted[r] set. An ID the graph minted without platform registration
// (tests build graph-only accounts) leaves an unregistered padding row.
// Per-account small collections (login-country tallies, per-post like
// counts) are kept as sorted slices — they are tiny in practice, a
// sorted slice is half the size of a map, and keeping them sorted makes
// snapshot encoding a straight copy.
//
// The table is not locked: only the world loop's apply phase writes it.
type accountTable struct {
	registered    []bool // false = padding row for an unregistered ID
	usernames     []string
	passwords     []string
	profiles      []Profile
	homeCountries []string
	created       []time.Time
	deleted       []bool
	sessionEpochs []uint64
	logins        [][]CountryCount // sorted by country
	posts         [][]PostID       // creation order
	likeCounts    [][]PostCount    // sorted by post ID (stateless-graph mode)
}

// row returns the row for id if the account was ever registered
// (deleted rows included). ID 0 wraps past every row, so it is absent
// like any ID beyond the end.
func (t *accountTable) row(id AccountID) (uint32, bool) {
	r := uint64(id) - 1
	if r >= uint64(len(t.registered)) || !t.registered[r] {
		return 0, false
	}
	return uint32(r), true
}

// len reports the number of rows (registered, deleted and padding).
func (t *accountTable) len() int { return len(t.registered) }

// add appends the row for id, padding any skipped IDs with unregistered
// rows, and returns it. IDs must arrive in ascending order.
func (t *accountTable) add(id AccountID, username, password string, prof Profile, home string, created time.Time) uint32 {
	r := int(id) - 1
	if r < t.len() {
		panic("platform: account registered twice")
	}
	for t.len() <= r {
		t.registered = append(t.registered, false)
		t.usernames = append(t.usernames, "")
		t.passwords = append(t.passwords, "")
		t.profiles = append(t.profiles, Profile{})
		t.homeCountries = append(t.homeCountries, "")
		t.created = append(t.created, time.Time{})
		t.deleted = append(t.deleted, false)
		t.sessionEpochs = append(t.sessionEpochs, 0)
		t.logins = append(t.logins, nil)
		t.posts = append(t.posts, nil)
		t.likeCounts = append(t.likeCounts, nil)
	}
	t.registered[r] = true
	t.usernames[r] = username
	t.passwords[r] = password
	t.profiles[r] = prof
	t.homeCountries[r] = home
	t.created[r] = created
	return uint32(r)
}

// grow pre-sizes the table for n more rows, so registering them appends
// into capacity instead of doubling every field slice as it fills.
func (t *accountTable) grow(n int) {
	t.registered = slices.Grow(t.registered, n)
	t.usernames = slices.Grow(t.usernames, n)
	t.passwords = slices.Grow(t.passwords, n)
	t.profiles = slices.Grow(t.profiles, n)
	t.homeCountries = slices.Grow(t.homeCountries, n)
	t.created = slices.Grow(t.created, n)
	t.deleted = slices.Grow(t.deleted, n)
	t.sessionEpochs = slices.Grow(t.sessionEpochs, n)
	t.logins = slices.Grow(t.logins, n)
	t.posts = slices.Grow(t.posts, n)
	t.likeCounts = slices.Grow(t.likeCounts, n)
}

// reset drops every row (restore path).
func (t *accountTable) reset() {
	t.registered = t.registered[:0]
	t.usernames = t.usernames[:0]
	t.passwords = t.passwords[:0]
	t.profiles = t.profiles[:0]
	t.homeCountries = t.homeCountries[:0]
	t.created = t.created[:0]
	t.deleted = t.deleted[:0]
	t.sessionEpochs = t.sessionEpochs[:0]
	t.logins = t.logins[:0]
	t.posts = t.posts[:0]
	t.likeCounts = t.likeCounts[:0]
}

// bumpLogin tallies one login from country on row r, keeping the tally
// sorted by country. The slice has one entry per distinct country the
// account ever logged in from — one or two, in practice — so the
// sorted-insert memmove is noise and steady-state revisits allocate
// nothing.
func (t *accountTable) bumpLogin(r uint32, country string) {
	ls := t.logins[r]
	i := sort.Search(len(ls), func(i int) bool { return ls[i].Country >= country })
	if i < len(ls) && ls[i].Country == country {
		ls[i].N++
		return
	}
	ls = append(ls, CountryCount{})
	copy(ls[i+1:], ls[i:])
	ls[i] = CountryCount{Country: country, N: 1}
	t.logins[r] = ls
}

// bumpLike tallies one like on post pid owned by row r (stateless-graph
// mode), keeping the tally sorted by post ID. Re-likes of a post the
// row already tracks allocate nothing.
func (t *accountTable) bumpLike(r uint32, pid PostID) {
	lc := t.likeCounts[r]
	i := sort.Search(len(lc), func(i int) bool { return lc[i].Post >= pid })
	if i < len(lc) && lc[i].Post == pid {
		lc[i].N++
		return
	}
	lc = append(lc, PostCount{})
	copy(lc[i+1:], lc[i:])
	lc[i] = PostCount{Post: pid, N: 1}
	t.likeCounts[r] = lc
}

// likeCount returns row r's tally for pid.
func (t *accountTable) likeCount(r uint32, pid PostID) int {
	lc := t.likeCounts[r]
	i := sort.Search(len(lc), func(i int) bool { return lc[i].Post >= pid })
	if i < len(lc) && lc[i].Post == pid {
		return lc[i].N
	}
	return 0
}

// postIndex is the post→author index. Post IDs are minted densely from
// 1 in both graph modes (by the graph with GraphWrites on, by
// Platform.nextPost with it off), so the index is a slice indexed by
// PostID rather than a hash map: 4 bytes per post, no hashing, and no
// rehash garbage as it grows. Author 0 means the post does not exist or
// its author was deleted; AccountIDs count from 1 and fit uint32, since
// the graph refuses to mint past that range.
type postIndex struct {
	author []uint32 // PostID → AccountID; 0 = absent
}

// set records pid's author. Posts are minted in ID order, so the slice
// almost always grows by one slot at the end; the gap fill covers posts
// the graph minted for accounts the platform does not index.
func (x *postIndex) set(pid PostID, author AccountID) {
	if n := int(pid) + 1 - len(x.author); n > 0 {
		x.author = append(x.author, make([]uint32, n)...)
	}
	x.author[pid] = uint32(author)
}

// get resolves pid to its live author.
func (x *postIndex) get(pid PostID) (AccountID, bool) {
	if pid >= PostID(len(x.author)) || x.author[pid] == 0 {
		return 0, false
	}
	return AccountID(x.author[pid]), true
}
