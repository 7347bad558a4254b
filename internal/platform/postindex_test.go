package platform

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"footsteps/internal/clock"
	"footsteps/internal/netsim"
	"footsteps/internal/rng"
	"footsteps/internal/socialgraph"
)

// postIndexWorld is a platform plus the map-based model of its
// post→author index that TestPostIndexMatchesModel checks it against.
type postIndexWorld struct {
	p        *Platform
	graph    *socialgraph.Graph
	reg      *netsim.Registry
	cfg      Config
	sessions map[AccountID]*Session // live accounts only
	author   map[PostID]AccountID   // model: live posts only
	maxPost  PostID                 // highest post ID ever minted
}

func newPostIndexWorld(cfg Config) *postIndexWorld {
	reg := netsim.NewRegistry()
	reg.Register(10, "home-isp", "USA", netsim.KindResidential)
	g := socialgraph.New()
	return &postIndexWorld{
		p:        New(cfg, g, reg, clock.NewScheduler(clock.New())),
		graph:    g,
		reg:      reg,
		cfg:      cfg,
		sessions: make(map[AccountID]*Session),
		author:   make(map[PostID]AccountID),
	}
}

func (w *postIndexWorld) minted(pid PostID, id AccountID) {
	w.author[pid] = id
	w.maxPost = max(w.maxPost, pid)
}

// restored rebuilds the world from its snapshot into fresh substrates,
// as crash recovery does, carrying the sessions and the model over.
func (w *postIndexWorld) restored(t *testing.T) *postIndexWorld {
	t.Helper()
	gst := w.graph.SnapshotState()
	pst := w.p.SnapshotState()
	r := newPostIndexWorld(w.cfg)
	if err := r.graph.RestoreState(gst); err != nil {
		t.Fatal(err)
	}
	if err := r.p.RestoreState(pst); err != nil {
		t.Fatal(err)
	}
	for id, s := range w.sessions {
		r.sessions[id] = r.p.RestoreSession(CaptureSession(s))
	}
	r.author, r.maxPost = w.author, w.maxPost
	return r
}

// check compares PostAuthor against the model for every ID ever minted,
// for the never-minted ID 0, and for IDs past the end of the index.
func (w *postIndexWorld) check(t *testing.T, step int) {
	t.Helper()
	probe := func(pid PostID) {
		got, ok := w.p.PostAuthor(pid)
		want, wantOK := w.author[pid]
		if got != want || ok != wantOK {
			t.Fatalf("step %d: PostAuthor(%d) = %d,%v, model says %d,%v", step, pid, got, ok, want, wantOK)
		}
	}
	for pid := PostID(0); pid <= w.maxPost+3; pid++ {
		probe(pid)
	}
	probe(PostID(math.MaxUint32) + 1)
	probe(math.MaxUint64)
}

// TestPostIndexMatchesModel drives random register/post/delete/
// snapshot-restore sequences and checks the dense post→author index
// against a map model after every step, in both graph modes: unknown
// IDs (0, past the end) resolve to nothing, a deleted account's posts
// disappear, and a restored world resolves exactly what the original
// did. Case names carry shards=1: the platform holds one table.
func TestPostIndexMatchesModel(t *testing.T) {
	for _, graphWrites := range []bool{false, true} {
		t.Run(fmt.Sprintf("graph=%t/shards=1", graphWrites), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.GraphWrites = graphWrites
			w := newPostIndexWorld(cfg)
			r := rng.New(8)
			w.check(t, 0)
			names := 0
			for step := 1; step <= 400; step++ {
				var live []AccountID
				for id := range w.sessions {
					live = append(live, id)
				}
				slices.Sort(live)
				switch op := r.Intn(10); {
				case op < 3 || len(live) == 0:
					names++
					name := fmt.Sprintf("u%d", names)
					id, err := w.p.RegisterAccount(name, "pw", Profile{PhotoCount: r.Intn(4)}, "USA")
					if err != nil {
						t.Fatal(err)
					}
					for _, pid := range w.p.Posts(id) {
						w.minted(pid, id)
					}
					s, err := w.p.Login(name, "pw", ClientInfo{IP: w.reg.Allocate(10), API: APIPrivate})
					if err != nil {
						t.Fatal(err)
					}
					w.sessions[id] = s
				case op < 7:
					id := live[r.Intn(len(live))]
					resp := w.sessions[id].Do(Request{Action: ActionPost})
					if resp.Err != nil {
						t.Fatalf("step %d: post: %v", step, resp.Err)
					}
					w.minted(resp.Post, id)
				case op < 9:
					id := live[r.Intn(len(live))]
					if err := w.p.DeleteAccount(id); err != nil {
						t.Fatal(err)
					}
					delete(w.sessions, id)
					for pid, a := range w.author {
						if a == id {
							delete(w.author, pid)
						}
					}
				default:
					w = w.restored(t)
				}
				w.check(t, step)
			}
			if len(w.author) == 0 {
				t.Fatal("no live posts at the end; the sequence is vacuous")
			}
		})
	}
}

// TestRestoreRejectsUnindexablePosts: rows are indexed by ID − 1, so a
// state whose post or account IDs the tables cannot hold is refused with
// an error before anything is allocated or overwritten — a corrupt
// snapshot cannot size a table.
func TestRestoreRejectsUnindexablePosts(t *testing.T) {
	for name, st := range map[string]*State{
		"post ID past the minted posts": {Accounts: []AccountState{{ID: 1, Posts: []PostID{1, 1 << 31}}}},
		"post ID 0":                     {Accounts: []AccountState{{ID: 1, Posts: []PostID{0}}}},
		"account ID 1<<31":              {Accounts: []AccountState{{ID: 1 << 31, Posts: []PostID{1}}}},
		"account ID past uint32":        {Accounts: []AccountState{{ID: 1 << 33, Posts: []PostID{1}}}},
		"account ID 0":                  {Accounts: []AccountState{{ID: 0}}},
		"accounts out of order":         {Accounts: []AccountState{{ID: 1}, {ID: 1}}},
	} {
		w := newPostIndexWorld(DefaultConfig())
		id, err := w.p.RegisterAccount("keep", "pw", Profile{PhotoCount: 1}, "USA")
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		err = w.p.RestoreState(st)
		runtime.GC()
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: RestoreState accepted the state", name)
		}
		if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 4<<20 {
			t.Errorf("%s: rejected restore grew the heap by %d bytes", name, grew)
		}
		if a, ok := w.p.PostAuthor(1); !ok || a != id || !w.p.Exists(id) {
			t.Errorf("%s: rejected restore changed the platform (PostAuthor(1) = %d,%v)", name, a, ok)
		}
	}

	// With GraphWrites off the platform mints every post itself, densely,
	// and lists each under its author, so NextPost cannot stretch the
	// index past the posts listed.
	cfg := DefaultConfig()
	cfg.GraphWrites = false
	w := newPostIndexWorld(cfg)
	if _, err := w.p.RegisterAccount("keep", "pw", Profile{}, "USA"); err != nil {
		t.Fatal(err)
	}
	st := &State{NextPost: 1 << 31, Accounts: []AccountState{{ID: 1, Posts: []PostID{1, 1 << 31}}}}
	if err := w.p.RestoreState(st); err == nil {
		t.Error("stateless mode: RestoreState accepted a post ID past the posts listed")
	}
}

// TestUnknownIDsResolveAbsent: with rows at ID − 1, ID 0, IDs the graph
// minted without platform registration (a gap in the platform's rows)
// and IDs past the end must all resolve as absent — before and after a
// snapshot round trip.
func TestUnknownIDsResolveAbsent(t *testing.T) {
	w := newPostIndexWorld(DefaultConfig())
	a, err := w.p.RegisterAccount("a", "pw", Profile{PhotoCount: 1}, "USA")
	if err != nil {
		t.Fatal(err)
	}
	gap := w.graph.CreateAccount(w.p.Now())
	gapPost, err := w.graph.AddPost(gap, w.p.Now())
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.p.RegisterAccount("b", "pw", Profile{PhotoCount: 1}, "USA")
	if err != nil {
		t.Fatal(err)
	}
	w.sessions[a], w.sessions[b] = nil, nil
	check := func(w *postIndexWorld, when string) {
		t.Helper()
		for _, id := range []AccountID{0, gap, b + 1, b + 1000, math.MaxUint32 + 1, math.MaxUint64} {
			if w.p.Exists(id) {
				t.Errorf("%s: Exists(%d) = true", when, id)
			}
			if name, ok := w.p.Username(id); ok {
				t.Errorf("%s: Username(%d) = %q", when, id, name)
			}
			if w.graph.Follows(a, id) || w.graph.Follows(id, a) {
				t.Errorf("%s: Follows reports an edge to unknown account %d", when, id)
			}
		}
		for _, pid := range []PostID{0, gapPost, gapPost + 1000, math.MaxUint64} {
			if author, ok := w.p.PostAuthor(pid); ok {
				t.Errorf("%s: PostAuthor(%d) = %d", when, pid, author)
			}
		}
		if !w.p.Exists(a) || !w.p.Exists(b) {
			t.Errorf("%s: registered accounts %d, %d not found", when, a, b)
		}
	}
	check(w, "live")
	check(w.restored(t), "restored")
}

// allocBudgetRegisterReserved is the allocation budget of RegisterAccount
// for a photo-less profile once Reserve has sized the tables: no account
// table, username index or graph table grows.
const allocBudgetRegisterReserved = 0

// TestAllocBudgetRegisterAfterReserve pins Reserve's contract: every
// registration it made room for appends into capacity.
func TestAllocBudgetRegisterAfterReserve(t *testing.T) {
	w := newPostIndexWorld(DefaultConfig())
	// AllocsPerRun calls the function once to warm up, then runs times.
	const runs, batch = 4, 2000
	w.p.Reserve((runs + 1) * batch)
	names := make([]string, (runs+1)*batch)
	for i := range names {
		names[i] = fmt.Sprintf("u%d", i)
	}
	next := 0
	got := testing.AllocsPerRun(runs, func() {
		for i := 0; i < batch; i++ {
			if _, err := w.p.RegisterAccount(names[next], "pw", Profile{}, "USA"); err != nil {
				t.Fatal(err)
			}
			next++
		}
	})
	if got > allocBudgetRegisterReserved {
		t.Errorf("%d RegisterAccount calls after Reserve allocate %.1f times, budget %d — a table outgrew its reservation",
			batch, got, allocBudgetRegisterReserved)
	}
}
