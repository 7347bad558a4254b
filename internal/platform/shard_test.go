package platform

import (
	"bytes"
	"fmt"
	"testing"

	"footsteps/internal/clock"
	"footsteps/internal/netsim"
	"footsteps/internal/socialgraph"
	"footsteps/internal/telemetry"
)

// TestDoEnvelopeMatchesWrappers pins the wrapper contract: a Request
// submitted through Do and the equivalent deprecated method produce the
// same outcome and the same emitted event shape.
func TestDoEnvelopeMatchesWrappers(t *testing.T) {
	t.Parallel()
	run := func(useDo bool) []Event {
		cfg := DefaultConfig()
		w := newWorld(t, cfg)
		var got []Event
		w.p.Log().Subscribe(func(ev Event) { got = append(got, ev) })
		alice := w.register(t, "alice")
		w.register(t, "bob")
		sa := w.login(t, "alice", 10)
		sb := w.login(t, "bob", 10)
		pid, ok := w.p.LatestPost(alice)
		if !ok {
			t.Fatal("alice has no seed post")
		}
		if useDo {
			sb.Do(Request{Action: ActionFollow, Target: alice})
			sb.Do(Request{Action: ActionLike, Post: pid})
			sb.Do(Request{Action: ActionComment, Post: pid, Text: "hi"})
			sa.Do(Request{Action: ActionPost})
			sb.Do(Request{Action: ActionUnfollow, Target: alice})
			sb.Do(Request{Action: ActionLike, Post: 9999}) // structural fail
		} else {
			sb.Do(Request{Action: ActionFollow, Target: alice})
			sb.Do(Request{Action: ActionLike, Post: pid})
			sb.Do(Request{Action: ActionComment, Post: pid, Text: "hi"})
			sa.Do(Request{Action: ActionPost})
			sb.Do(Request{Action: ActionUnfollow, Target: alice})
			sb.Do(Request{Action: ActionLike, Post: 9999})
		}
		return got
	}
	a, b := run(true), run(false)
	if len(a) != len(b) {
		t.Fatalf("event count differs: Do %d, wrappers %d", len(a), len(b))
	}
	for i := range a {
		// Seq is assigned by the log and IPs by allocation order; both
		// runs use fresh worlds so all fields must agree exactly.
		if a[i] != b[i] {
			t.Errorf("event %d differs:\n  Do:      %+v\n  wrapper: %+v", i, a[i], b[i])
		}
	}
}

// TestDoRejectsBadRequests covers the envelope's error edges: no
// session, and an action kind that is not requestable.
func TestDoRejectsBadRequests(t *testing.T) {
	t.Parallel()
	w := newWorld(t, DefaultConfig())
	if resp := w.p.Do(Request{Action: ActionFollow, Target: 1}); resp.Err != ErrNoSession {
		t.Errorf("sessionless request: err %v, want ErrNoSession", resp.Err)
	}
	w.register(t, "alice")
	s := w.login(t, "alice", 10)
	if resp := s.Do(Request{Action: ActionLogin}); resp.Err == nil {
		t.Error("ActionLogin through Do succeeded; logins must go through Login")
	}
}

// TestPlatformShardEquivalence replays one deterministic action script
// against platforms striped 1, 4, and 16 ways and asserts the emitted
// event streams match exactly — the platform-level form of the
// simulation-wide stream invariant, cheap enough to run everywhere.
func TestPlatformShardEquivalence(t *testing.T) {
	t.Parallel()
	script := func(shards int) ([]Event, string) {
		reg := netsim.NewRegistry()
		reg.Register(10, "home-isp", "USA", netsim.KindResidential)
		sched := clock.NewScheduler(clock.New())
		cfg := DefaultConfig()
		cfg.Shards = shards
		p := New(cfg, socialgraph.NewSharded(shards), reg, sched)
		var events []Event
		p.Log().Subscribe(func(ev Event) { events = append(events, ev) })

		var sessions []*Session
		for i := 0; i < 24; i++ {
			name := fmt.Sprintf("acct-%d", i)
			if _, err := p.RegisterAccount(name, "pw", Profile{PhotoCount: 2}, "USA"); err != nil {
				t.Fatal(err)
			}
			s, err := p.Login(name, "pw", ClientInfo{IP: reg.Allocate(10), Fingerprint: "c", API: APIPrivate})
			if err != nil {
				t.Fatal(err)
			}
			sessions = append(sessions, s)
		}
		var state bytes.Buffer
		for i, s := range sessions {
			tgt := AccountID((i+7)%24 + 1)
			s.Do(Request{Action: ActionFollow, Target: tgt})
			if pid, ok := p.LatestPost(tgt); ok {
				s.Do(Request{Action: ActionLike, Post: pid})
				s.Do(Request{Action: ActionComment, Post: pid, Text: "t"})
			}
			if resp := s.Do(Request{Action: ActionPost, Tags: []string{"tag"}}); resp.Err == nil {
				fmt.Fprintf(&state, "post=%d ", resp.Post)
			}
			s.Do(Request{Action: ActionUnfollow, Target: tgt})
		}
		for id := AccountID(1); id <= 24; id++ {
			fmt.Fprintf(&state, "%d:%d:%d ", id, p.graph.InDegree(id), p.graph.OutDegree(id))
		}
		fmt.Fprintf(&state, "tagged=%d", len(p.RecentByTag("tag", 100)))
		return events, state.String()
	}
	wantEv, wantState := script(1)
	if len(wantEv) < 100 {
		t.Fatalf("script produced only %d events; comparison would be vacuous", len(wantEv))
	}
	for _, shards := range []int{4, 16} {
		gotEv, gotState := script(shards)
		if len(gotEv) != len(wantEv) {
			t.Fatalf("shards=%d: %d events, want %d", shards, len(gotEv), len(wantEv))
		}
		for i := range wantEv {
			if gotEv[i] != wantEv[i] {
				t.Fatalf("shards=%d: event %d differs:\n got  %+v\n want %+v", shards, i, gotEv[i], wantEv[i])
			}
		}
		if gotState != wantState {
			t.Errorf("shards=%d: graph state diverged:\n got  %s\n want %s", shards, gotState, wantState)
		}
	}
}

// TestPlatformContentionCounters checks WireTelemetry registers one
// contention counter per account shard and the shards gauge. The post
// index is a single dense table, not a stripe family, so it has none.
func TestPlatformContentionCounters(t *testing.T) {
	t.Parallel()
	reg := netsim.NewRegistry()
	reg.Register(10, "home-isp", "USA", netsim.KindResidential)
	sched := clock.NewScheduler(clock.New())
	cfg := DefaultConfig()
	cfg.Shards = 3
	p := New(cfg, socialgraph.New(), reg, sched)
	tr := telemetry.NewRegistry()
	p.WireTelemetry(tr)
	snap := tr.Snapshot()
	if g := snap.Gauges["platform.shards"]; g != 3 {
		t.Errorf("platform.shards gauge = %d, want 3", g)
	}
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("platform.shard.%02d.contention", i)
		if _, ok := snap.Counters[name]; !ok {
			t.Errorf("counter %q not registered", name)
		}
	}
}
