package platform

import (
	"slices"
	"sort"
	"time"

	"footsteps/internal/intern"
)

// accountTable is one shard's account records laid out struct-of-arrays:
// a dense-row allocator (intern.Dense) maps the sparse AccountID space
// onto rows of parallel slices, one slice per field. Compared with the
// map[AccountID]*account it replaced, the table stores an account in a
// handful of contiguous array cells instead of a heap object plus two
// maps — the difference between ~1 KB and ~200 B per account, which is
// what lets a million-account world fit in a few GB (see
// docs/PERFORMANCE.md, "Scaling to 1M accounts").
//
// Rows are assigned in first-registration order and never recycled: a
// deleted account keeps its row with deleted[r] set, exactly as the map
// kept tombstoned records. Per-account small collections (login-country
// tallies, per-post like counts) are kept as sorted slices — they are
// tiny in practice, a sorted slice is half the size of a map, and
// keeping them sorted makes snapshot encoding a straight copy.
//
// The table is not internally locked; its owning shard's mutex covers
// every access, exactly like the map it replaced.
type accountTable struct {
	ids intern.Dense // AccountID ↔ dense row

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

// row returns the dense row for id, if the account has ever been
// registered on this shard (deleted rows included, like the old map).
func (t *accountTable) row(id AccountID) (uint32, bool) {
	return t.ids.Lookup(uint64(id))
}

// id returns the AccountID occupying row r.
func (t *accountTable) id(r uint32) AccountID { return AccountID(t.ids.ID(r)) }

// len reports the number of rows ever assigned (live + deleted).
func (t *accountTable) len() int { return t.ids.Len() }

// add appends a fresh account row and returns it.
func (t *accountTable) add(id AccountID, username, password string, prof Profile, home string, created time.Time) uint32 {
	r := t.ids.Index(uint64(id))
	if int(r) != len(t.usernames) {
		panic("platform: account registered twice")
	}
	t.usernames = append(t.usernames, username)
	t.passwords = append(t.passwords, password)
	t.profiles = append(t.profiles, prof)
	t.homeCountries = append(t.homeCountries, home)
	t.created = append(t.created, created)
	t.deleted = append(t.deleted, false)
	t.sessionEpochs = append(t.sessionEpochs, 0)
	t.logins = append(t.logins, nil)
	t.posts = append(t.posts, nil)
	t.likeCounts = append(t.likeCounts, nil)
	return r
}

// grow pre-sizes the table for n more rows, so registering them appends
// into capacity instead of doubling every field slice as it fills.
func (t *accountTable) grow(n int) {
	t.ids.Grow(n)
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
	t.ids.Restore(nil)
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
