package socialgraph

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"footsteps/internal/rng"
)

// TestFollowUnfollowSymmetryProperty drives seeded random follow and
// unfollow churn — including symmetric pairs (a→b alongside b→a) — and
// then asserts the two sides of the relation agree: every followee entry
// has the matching follower entry, Follows agrees with both, and total
// in-degree equals total out-degree. The churn runs on one goroutine, as
// the graph's single writer does.
func TestFollowUnfollowSymmetryProperty(t *testing.T) {
	t.Parallel()
	const accounts, ops = 64, 24000
	g := New()
	ids := make([]AccountID, accounts)
	for i := range ids {
		ids[i] = g.CreateAccount(time.Unix(0, 0))
	}
	r := rng.New(7)
	for k := 0; k < ops; k++ {
		var from, to AccountID
		switch k % 4 {
		case 0:
			from, to = ids[k%accounts], ids[(k+1)%accounts]
		case 1:
			from, to = ids[(k+1)%accounts], ids[k%accounts]
		default:
			from, to = ids[r.Intn(accounts)], ids[r.Intn(accounts)]
		}
		if r.Bool(0.5) {
			g.Follow(from, to)
		} else {
			g.Unfollow(from, to)
		}
	}

	in, out := 0, 0
	for _, id := range ids {
		in += g.InDegree(id)
		out += g.OutDegree(id)
		for _, f := range g.Followees(id) {
			if !g.Follows(id, f) {
				t.Fatalf("edge %d→%d in followee list but Follows says no", id, f)
			}
			found := false
			for _, b := range g.Followers(f) {
				found = found || b == id
			}
			if !found {
				t.Fatalf("edge %d→%d missing from %d's follower set", id, f, f)
			}
		}
		for _, b := range g.Followers(id) {
			if !g.Follows(b, id) {
				t.Fatalf("follower %d of %d has no matching followee edge", b, id)
			}
		}
	}
	if in != out {
		t.Fatalf("edge conservation broken: Σin=%d Σout=%d", in, out)
	}
	if in == 0 {
		t.Fatal("no edges survived the churn; property check is vacuous")
	}
}

// randomGraph builds a graph from a seeded workload touching every
// mutator, with one deletion cascade.
func randomGraph(t *testing.T) *Graph {
	t.Helper()
	g := New()
	r := rng.New(42)
	ids := make([]AccountID, 40)
	var pids []PostID
	for i := range ids {
		ids[i] = g.CreateAccount(time.Unix(int64(i), 0))
	}
	for _, id := range ids {
		if r.Bool(0.7) {
			pid, err := g.AddPost(id, time.Unix(0, 0))
			if err != nil {
				t.Fatal(err)
			}
			pids = append(pids, pid)
		}
	}
	for k := 0; k < 2000; k++ {
		a, b := ids[r.Intn(len(ids))], ids[r.Intn(len(ids))]
		pid := pids[r.Intn(len(pids))]
		switch r.Intn(5) {
		case 0:
			g.Follow(a, b)
		case 1:
			g.Unfollow(a, b)
		case 2:
			g.Like(a, pid)
		case 3:
			g.Unlike(a, pid)
		default:
			g.AddComment(a, pid, "x", time.Unix(0, 0))
		}
	}
	if err := g.DeleteAccount(ids[3]); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestSnapshotRestoreRoundTrip restores a graph's snapshot, including
// the dead rows a deletion leaves, into a fresh graph and checks that
// every query agrees, the re-taken snapshot is identical, and the next
// minted IDs continue where the original left off.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	t.Parallel()
	g := randomGraph(t)
	st := g.SnapshotState()
	h := New()
	if err := h.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(h.SnapshotState(), st) {
		t.Fatal("re-taken snapshot differs from the restored one")
	}
	if a, b := g.NumAccounts(), h.NumAccounts(); a != b {
		t.Fatalf("NumAccounts: %d != %d", a, b)
	}
	for id := AccountID(0); id <= 42; id++ {
		if g.Exists(id) != h.Exists(id) || g.InDegree(id) != h.InDegree(id) ||
			g.OutDegree(id) != h.OutDegree(id) || g.EngagementRate(id) != h.EngagementRate(id) ||
			!reflect.DeepEqual(g.Posts(id), h.Posts(id)) || !reflect.DeepEqual(g.Followers(id), h.Followers(id)) {
			t.Fatalf("account %d differs after restore", id)
		}
	}
	for pid := PostID(0); pid <= 42; pid++ {
		if g.LikeCount(pid) != h.LikeCount(pid) || !reflect.DeepEqual(g.Comments(pid), h.Comments(pid)) ||
			!reflect.DeepEqual(g.Likers(pid), h.Likers(pid)) {
			t.Fatalf("post %d differs after restore", pid)
		}
	}
	if a, b := g.CreateAccount(time.Unix(0, 0)), h.CreateAccount(time.Unix(0, 0)); a != b {
		t.Fatalf("next account ID %d != %d", a, b)
	}
}

// TestRestoreRejectsForgedIDs: rows are indexed by ID − 1, so a state
// naming an ID outside [1, NextAcct] / [1, NextPost] — or listing IDs
// out of order — is refused with an error before anything is allocated
// or overwritten. Not parallel: the heap measurement must not see other
// tests' allocations.
func TestRestoreRejectsForgedIDs(t *testing.T) {
	base := func() *State {
		return &State{
			NextAcct: 2, NextPost: 1,
			Accounts: []AccountState{{ID: 1, Posts: []PostID{1}}, {ID: 2, Followees: []AccountID{1}}},
			Posts:    []PostState{{ID: 1, Author: 1, Likes: []AccountID{2}}},
		}
	}
	for name, forge := range map[string]func(*State){
		"account 1<<31":     func(st *State) { st.Accounts[1].ID = 1 << 31 },
		"account 0":         func(st *State) { st.Accounts[0].ID = 0 },
		"accounts reversed": func(st *State) { st.Accounts[0].ID, st.Accounts[1].ID = 2, 1 },
		"followee 1<<31":    func(st *State) { st.Accounts[1].Followees[0] = 1 << 31 },
		"post 1<<31":        func(st *State) { st.Posts[0].ID = 1 << 31 },
		"post ref 0":        func(st *State) { st.Accounts[0].Posts[0] = 0 },
		"author 1<<31":      func(st *State) { st.Posts[0].Author = 1 << 31 },
		"liker 0":           func(st *State) { st.Posts[0].Likes[0] = 0 },
		"counter past u32":  func(st *State) { st.NextAcct = 1 << 33 },
	} {
		g := New()
		keep := g.CreateAccount(time.Unix(0, 0))
		st := base()
		forge(st)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		err := g.RestoreState(st)
		runtime.GC()
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: RestoreState accepted the state", name)
		}
		if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 4<<20 {
			t.Errorf("%s: rejected restore grew the heap by %d bytes", name, grew)
		}
		if !g.Exists(keep) || g.NumAccounts() != 1 {
			t.Errorf("%s: rejected restore changed the graph", name)
		}
	}
	if err := New().RestoreState(base()); err != nil {
		t.Fatalf("unforged state rejected: %v", err)
	}
}
