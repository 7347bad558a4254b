package platform

import (
	"fmt"
	"math"
	"net/netip"
	"slices"
	"sort"
	"time"

	"footsteps/internal/socialgraph"
)

// This file is the platform's half of the snapshot/restore contract (see
// internal/persistence and docs/PERSISTENCE.md). SnapshotState enumerates
// every piece of mutable platform state the request pipeline can touch;
// RestoreState overwrites a freshly constructed platform with it. Both
// run only at day boundaries on the single simulation timeline, with no
// concurrent traffic.
//
// The representation is deliberately shard-independent: accounts, limiter
// windows, and the post index are flattened and sorted by ID, so a
// snapshot taken at one stripe count restores into any other — shard
// count stays a pure performance knob even across a checkpoint.

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
		NextPost: p.nextPost.Load(),
		LogSeq:   p.log.Seq(),
	}
	for _, sh := range p.shards {
		sh.rlock()
		// Table rows are in registration order; per-account tallies are
		// maintained sorted, so the flattened form needs only the global
		// by-ID sort below to be identical to the historical map walk.
		for r := uint32(0); int(r) < sh.tab.len(); r++ {
			as := AccountState{
				ID:           sh.tab.id(r),
				Username:     sh.tab.usernames[r],
				Password:     sh.tab.passwords[r],
				Profile:      sh.tab.profiles[r],
				HomeCountry:  sh.tab.homeCountries[r],
				Created:      sh.tab.created[r],
				Deleted:      sh.tab.deleted[r],
				SessionEpoch: sh.tab.sessionEpochs[r],
				Posts:        append([]PostID(nil), sh.tab.posts[r]...),
			}
			if ls := sh.tab.logins[r]; len(ls) > 0 {
				as.LoginCountries = append([]CountryCount(nil), ls...)
			}
			if lc := sh.tab.likeCounts[r]; len(lc) > 0 {
				as.LikeCounts = append([]PostCount(nil), lc...)
			}
			st.Accounts = append(st.Accounts, as)
		}
		for r, hour := range sh.limiter.hours {
			if hour == 0 {
				continue // never touched
			}
			st.Limiters = append(st.Limiters, LimiterState{
				ID: sh.tab.id(uint32(r)), Hour: hour, Count: int(sh.limiter.counts[r]),
			})
		}
		sh.mu.RUnlock()
	}
	sort.Slice(st.Accounts, func(i, j int) bool { return st.Accounts[i].ID < st.Accounts[j].ID })
	sort.Slice(st.Limiters, func(i, j int) bool { return st.Limiters[i].ID < st.Limiters[j].ID })

	p.tags.mu.RLock()
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
	p.tags.mu.RUnlock()
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
// The caller is responsible for re-registering the pending enforcements'
// scheduler events via RestoreEnforcements (after the scheduler has been
// fast-forwarded to the snapshot instant).
//
// A state the post→author index cannot hold — an account ID past
// uint32, or a post ID above the number of posts listed (IDs are minted
// densely from 1 and each is listed once, under its author) — can only
// come from a corrupt snapshot; RestoreState rejects it with an error
// before touching anything.
func (p *Platform) RestoreState(st *State) error {
	var posts, highest uint64
	for i := range st.Accounts {
		as := &st.Accounts[i]
		if as.ID > math.MaxUint32 {
			return fmt.Errorf("platform: restore: account ID %d exceeds the uint32 ID space", as.ID)
		}
		posts += uint64(len(as.Posts))
		for _, pid := range as.Posts {
			highest = max(highest, uint64(pid))
		}
	}
	if highest > posts {
		return fmt.Errorf("platform: restore: post ID %d exceeds the %d posts listed", highest, posts)
	}

	p.nextPost.Store(st.NextPost)
	p.log.RestoreSeq(st.LogSeq)

	// Size every table for the snapshot's rows up front, as Reserve does
	// for a fresh world, so recovery pays no growth either. The post
	// index needs one slot per listed post plus the unused slot 0.
	per := socialgraph.ShardCapacity(len(st.Accounts), len(p.shards))
	p.nameMu.Lock()
	clear(p.byUsername)
	p.nameMu.Unlock()
	for _, sh := range p.shards {
		sh.lock()
		sh.tab.reset()
		sh.tab.grow(per)
		sh.limiter.reset()
		sh.limiter.reserve(per)
		sh.mu.Unlock()
	}
	p.posts.mu.Lock()
	p.posts.author = slices.Grow(p.posts.author[:0], int(posts)+1)
	p.posts.mu.Unlock()

	for i := range st.Accounts {
		as := &st.Accounts[i]
		sh := p.shardFor(as.ID)
		sh.lock()
		r := sh.tab.add(as.ID, as.Username, as.Password, as.Profile, as.HomeCountry, as.Created)
		sh.tab.deleted[r] = as.Deleted
		sh.tab.sessionEpochs[r] = as.SessionEpoch
		if len(as.LoginCountries) > 0 {
			sh.tab.logins[r] = append([]CountryCount(nil), as.LoginCountries...)
		}
		if len(as.Posts) > 0 {
			sh.tab.posts[r] = append([]PostID(nil), as.Posts...)
		}
		if len(as.LikeCounts) > 0 {
			sh.tab.likeCounts[r] = append([]PostCount(nil), as.LikeCounts...)
		}
		sh.mu.Unlock()
		if !as.Deleted {
			p.nameMu.Lock()
			p.byUsername[as.Username] = as.ID
			p.nameMu.Unlock()
			p.posts.mu.Lock()
			for _, pid := range as.Posts {
				p.posts.set(pid, as.ID)
			}
			p.posts.mu.Unlock()
		}
	}

	for _, ls := range st.Limiters {
		sh := p.shardFor(ls.ID)
		sh.lock()
		if r, ok := sh.tab.row(ls.ID); ok {
			sh.limiter.set(r, ls.Hour, ls.Count)
		}
		sh.mu.Unlock()
	}

	p.tags.mu.Lock()
	clear(p.tags.byTag)
	for _, ts := range st.Tags {
		r := &tagRing{posts: make([]PostID, p.tags.keepup)}
		k := copy(r.posts, ts.Posts)
		r.next = k % len(r.posts)
		r.full = k == len(r.posts)
		p.tags.byTag[ts.Tag] = r
	}
	p.tags.mu.Unlock()
	return nil
}

// RestoreEnforcements re-registers the pending delayed-removals from a
// snapshot, in their original scheduling order. Call after the scheduler
// has been fast-forwarded to the snapshot instant so the At targets are
// in the future.
func (p *Platform) RestoreEnforcements(sts []EnforcementState) {
	p.enforce = p.enforce[:0]
	for _, es := range sts {
		e := &pendingEnforcement{from: es.From, to: es.To, due: es.Due}
		p.enforce = append(p.enforce, e)
		p.sched.At(e.due, func() { p.fireEnforcement(e) })
	}
}
