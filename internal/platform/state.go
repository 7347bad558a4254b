package platform

import (
	"fmt"
	"net/netip"
	"slices"
	"sort"
	"time"
)

// This file is the platform's half of the snapshot/restore contract (see
// internal/persistence and docs/PERSISTENCE.md). SnapshotState enumerates
// every piece of mutable platform state the request pipeline can touch;
// RestoreState overwrites a freshly constructed platform with it. Both
// run only at day boundaries on the single simulation timeline, with no
// concurrent traffic. Accounts and limiter windows are listed in
// ascending ID order — the order of their rows.

// State is the complete mutable state of a Platform.
type State struct {
	NextPost uint64
	LogSeq   uint64
	Accounts []AccountState
	Limiters []LimiterState
	Tags     []TagState
	// Enforcements are the delayed-removal actions scheduled by
	// VerdictDelayRemove that have not fired yet, in scheduling order.
	Enforcements []EnforcementState
}

// AccountState is one account record, flattened for serialization.
type AccountState struct {
	ID             AccountID
	Username       string
	Password       string
	Profile        Profile
	HomeCountry    string
	Created        time.Time
	Deleted        bool
	SessionEpoch   uint64
	LoginCountries []CountryCount // sorted by country
	Posts          []PostID       // creation order
	LikeCounts     []PostCount    // sorted by post ID
}

// CountryCount is one login-geolocation tally.
type CountryCount struct {
	Country string
	N       int
}

// PostCount is one per-post like tally (stateless-graph mode).
type PostCount struct {
	Post PostID
	N    int
}

// LimiterState is one hourly rate-limit window.
type LimiterState struct {
	ID    AccountID
	Hour  int64
	Count int
}

// TagState is one hashtag ring, serialized in logical order (oldest
// first) so the representation is independent of the ring's rotation.
type TagState struct {
	Tag   string
	Posts []PostID
}

// EnforcementState is one pending delayed-removal.
type EnforcementState struct {
	From AccountID
	To   AccountID
	Due  time.Time
}

// SessionState is a serializable session handle. Other components embed
// it to persist the sessions they hold.
type SessionState struct {
	Present     bool
	ID          AccountID
	Epoch       uint64
	IP          netip.Addr
	Fingerprint string
	API         APIKind
}

// CaptureSession flattens a session (nil allowed) into a SessionState.
func CaptureSession(s *Session) SessionState {
	if s == nil {
		return SessionState{}
	}
	return SessionState{
		Present:     true,
		ID:          s.id,
		Epoch:       s.epoch,
		IP:          s.client.IP,
		Fingerprint: s.client.Fingerprint,
		API:         s.client.API,
	}
}

// RestoreSession rebuilds a session handle from a snapshot without going
// through Login: no event is emitted, no geolocation tally moves, and no
// address is allocated. A not-present state restores to nil. The epoch is
// restored verbatim, so a session that was already revoked at snapshot
// time is still revoked after restore.
func (p *Platform) RestoreSession(st SessionState) *Session {
	if !st.Present {
		return nil
	}
	return &Session{
		p: p, id: st.ID, epoch: st.Epoch,
		client: ClientInfo{IP: st.IP, Fingerprint: st.Fingerprint, API: st.API},
	}
}

// SnapshotState captures the platform's complete mutable state.
func (p *Platform) SnapshotState() *State {
	st := &State{
		NextPost: p.nextPost,
		LogSeq:   p.log.Seq(),
	}
	t := &p.tab
	// Per-account tallies are maintained sorted, so the flattened form is
	// a straight copy.
	for r := range t.registered {
		if !t.registered[r] {
			continue
		}
		as := AccountState{
			ID:           AccountID(r + 1),
			Username:     t.usernames[r],
			Password:     t.passwords[r],
			Profile:      t.profiles[r],
			HomeCountry:  t.homeCountries[r],
			Created:      t.created[r],
			Deleted:      t.deleted[r],
			SessionEpoch: t.sessionEpochs[r],
			Posts:        append([]PostID(nil), t.posts[r]...),
		}
		if ls := t.logins[r]; len(ls) > 0 {
			as.LoginCountries = append([]CountryCount(nil), ls...)
		}
		if lc := t.likeCounts[r]; len(lc) > 0 {
			as.LikeCounts = append([]PostCount(nil), lc...)
		}
		st.Accounts = append(st.Accounts, as)
	}
	for r, hour := range p.limiter.hours {
		if hour == 0 {
			continue // never touched
		}
		st.Limiters = append(st.Limiters, LimiterState{
			ID: AccountID(r + 1), Hour: hour, Count: int(p.limiter.counts[r]),
		})
	}

	for tag, r := range p.tags.byTag {
		ts := TagState{Tag: tag}
		n := r.next
		if r.full {
			n = len(r.posts)
		}
		// Oldest first: for a full ring that is posts[next:], posts[:next];
		// for a partial one, posts[:next].
		if r.full {
			ts.Posts = append(ts.Posts, r.posts[r.next:]...)
			ts.Posts = append(ts.Posts, r.posts[:r.next]...)
		} else {
			ts.Posts = append(ts.Posts, r.posts[:n]...)
		}
		st.Tags = append(st.Tags, ts)
	}
	sort.Slice(st.Tags, func(i, j int) bool { return st.Tags[i].Tag < st.Tags[j].Tag })

	for _, e := range p.enforce {
		if e.done {
			continue
		}
		st.Enforcements = append(st.Enforcements, EnforcementState{From: e.from, To: e.to, Due: e.due})
	}
	return st
}

// RestoreState overwrites the platform's mutable state with a snapshot.
// Restore the graph first: account IDs are checked against the IDs it
// has minted. The caller is responsible for re-registering the pending
// enforcements' scheduler events via RestoreEnforcements (after the
// scheduler has been fast-forwarded to the snapshot instant).
//
// A state the tables cannot hold — an account ID that is 0, above the
// graph's minted IDs or listed out of order, or a post ID that is 0 or
// above the minted post IDs (the graph's with GraphWrites on; with it
// off, the snapshot's NextPost and the number of posts listed, since the
// platform then mints every post densely and lists each under its
// author) — can only come from a corrupt snapshot; RestoreState rejects
// it with an error before allocating or touching anything.
func (p *Platform) RestoreState(st *State) error {
	p.guard.Check("platform.RestoreState")
	maxAcct, maxPost := p.graph.Minted()
	if !p.cfg.GraphWrites {
		maxPost = PostID(st.NextPost)
	}
	var highest PostID
	var prev AccountID
	listed := 0
	for i := range st.Accounts {
		as := &st.Accounts[i]
		if as.ID == 0 || as.ID > maxAcct {
			return fmt.Errorf("platform: restore: account ID %d outside the graph's [1, %d]", as.ID, maxAcct)
		}
		if as.ID <= prev {
			return fmt.Errorf("platform: restore: account %d listed out of order", as.ID)
		}
		prev = as.ID
		listed += len(as.Posts)
		for _, pid := range as.Posts {
			if pid == 0 || pid > maxPost {
				return fmt.Errorf("platform: restore: account %d lists post ID %d outside [1, %d]", as.ID, pid, maxPost)
			}
			highest = max(highest, pid)
		}
	}
	if !p.cfg.GraphWrites && uint64(highest) > uint64(listed) {
		return fmt.Errorf("platform: restore: post ID %d exceeds the %d posts listed", highest, listed)
	}

	p.nextPost = st.NextPost
	p.log.RestoreSeq(st.LogSeq)

	// Size every table for the snapshot's rows up front, as Reserve does
	// for a fresh world, so recovery pays no growth either. The post
	// index needs a slot per post ID plus the unused slot 0.
	clear(p.byUsername)
	p.tab.reset()
	p.limiter.reset()
	if n := len(st.Accounts); n > 0 {
		rows := int(st.Accounts[n-1].ID)
		p.tab.grow(rows)
		p.limiter.reserve(rows)
	}
	p.posts.author = slices.Grow(p.posts.author[:0], int(highest)+1)

	for i := range st.Accounts {
		as := &st.Accounts[i]
		r := p.tab.add(as.ID, as.Username, as.Password, as.Profile, as.HomeCountry, as.Created)
		p.tab.deleted[r] = as.Deleted
		p.tab.sessionEpochs[r] = as.SessionEpoch
		if len(as.LoginCountries) > 0 {
			p.tab.logins[r] = append([]CountryCount(nil), as.LoginCountries...)
		}
		if len(as.Posts) > 0 {
			p.tab.posts[r] = append([]PostID(nil), as.Posts...)
		}
		if len(as.LikeCounts) > 0 {
			p.tab.likeCounts[r] = append([]PostCount(nil), as.LikeCounts...)
		}
		if !as.Deleted {
			p.byUsername[as.Username] = as.ID
			for _, pid := range as.Posts {
				p.posts.set(pid, as.ID)
			}
		}
	}

	for _, ls := range st.Limiters {
		if r, ok := p.tab.row(ls.ID); ok {
			p.limiter.set(r, ls.Hour, ls.Count)
		}
	}

	clear(p.tags.byTag)
	for _, ts := range st.Tags {
		r := &tagRing{posts: make([]PostID, p.tags.keepup)}
		k := copy(r.posts, ts.Posts)
		r.next = k % len(r.posts)
		r.full = k == len(r.posts)
		p.tags.byTag[ts.Tag] = r
	}
	return nil
}

// RestoreEnforcements re-registers the pending delayed-removals from a
// snapshot, in their original scheduling order. Call after the scheduler
// has been fast-forwarded to the snapshot instant so the At targets are
// in the future.
func (p *Platform) RestoreEnforcements(sts []EnforcementState) {
	p.guard.Check("platform.RestoreEnforcements")
	p.enforce = p.enforce[:0]
	for _, es := range sts {
		e := &pendingEnforcement{from: es.From, to: es.To, due: es.Due}
		p.enforce = append(p.enforce, e)
		p.sched.At(e.due, func() { p.fireEnforcement(e) })
	}
}
