// Package platform implements the simulated photo-sharing service the study
// runs against: account registration and credentials, login sessions with
// client metadata, the action API (like, follow, unfollow, comment, post),
// ordinary API rate limits, an event stream, and the enforcement hooks that
// countermeasures attach to.
//
// The platform deliberately exposes the same surfaces Instagram exposed in
// the paper:
//
//   - customers hand their credentials to AASs, which then Login and act on
//     their behalf through the (spoofed) private mobile API;
//   - every request carries an IP, resolved to an ASN and country, plus a
//     client fingerprint — the signals detection keys on (§5);
//   - a Gatekeeper interposes on every action and can allow it, block it
//     synchronously, or allow it and schedule deferred removal (§6.1);
//   - resetting an account's password revokes all outstanding sessions,
//     which is exactly how users evict an AAS (§3.3.1).
//
// Every mutation routes through one choke point, Do(Request): a typed
// action envelope carrying the session, client metadata, and payload.
// Session-validity checks, fault injection, rate limiting, gatekeeping,
// state mutation, event emission, and telemetry all happen once, in
// Do's pipeline, instead of being re-wired per action (see
// docs/ARCHITECTURE.md). Mutable state is lock-striped across shards
// keyed by a stable hash of AccountID (see shard.go), so the parallel
// planning phase and independent mutations scale past a single lock.
package platform

import (
	"errors"
	"fmt"
	"maps"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"footsteps/internal/clock"
	"footsteps/internal/netsim"
	"footsteps/internal/socialgraph"
	"footsteps/internal/telemetry"
	"footsteps/internal/trace"
)

// AccountID aliases the graph's account identifier; the two packages share
// one ID space.
type AccountID = socialgraph.AccountID

// PostID aliases the graph's post identifier.
type PostID = socialgraph.PostID

// Errors returned by platform operations.
var (
	ErrBadCredentials = errors.New("platform: bad credentials")
	ErrSessionRevoked = errors.New("platform: session revoked")
	ErrAccountGone    = errors.New("platform: account deleted")
	ErrBlocked        = errors.New("platform: action blocked")
	ErrRateLimited    = errors.New("platform: rate limited")
	ErrUsernameTaken  = errors.New("platform: username taken")
	// ErrUnavailable is a transient 5xx-style infrastructure failure
	// injected by a fault schedule (internal/faults); clients may retry.
	ErrUnavailable = errors.New("platform: service unavailable")
	// ErrNoSession marks a Request submitted without a session.
	ErrNoSession = errors.New("platform: request without session")
)

// Profile captures the externally visible richness of an account — what
// separates the paper's "empty" honeypots from "lived-in" ones (§4.1.1).
type Profile struct {
	PhotoCount    int // photos uploaded at creation
	HasProfilePic bool
	HasBio        bool
	HasName       bool
}

// LivedIn reports whether the profile meets the paper's lived-in bar:
// photos plus a fully populated identity.
func (p Profile) LivedIn() bool {
	return p.PhotoCount >= 10 && p.HasProfilePic && p.HasBio && p.HasName
}

// Config tunes a Platform.
type Config struct {
	// GraphWrites controls whether actions mutate the social graph. Full
	// fidelity (true) is right for honeypot and intervention studies. The
	// population-scale 90-day business simulation disables it and relies
	// on the event stream, keeping memory flat; see DESIGN.md §6.
	GraphWrites bool
	// PrivateHourlyLimit caps actions per account per hour on the private
	// API. Real services self-throttle below this.
	PrivateHourlyLimit int
	// OAuthHourlyLimit caps the public API "in a manner that precludes
	// broad abusive use" (§2) — far below the private limit.
	OAuthHourlyLimit int
	// Shards is the lock-stripe count for mutable per-account platform
	// state (accounts, sessions, rate-limit buckets). 0 means
	// DefaultShards. Purely a concurrency knob: the event stream is
	// byte-identical at every shard count (see docs/ARCHITECTURE.md).
	Shards int
}

// DefaultConfig matches the study's standard world. The OAuth cap of a
// few actions per hour reflects how tightly the public API restricts
// write actions — the reason every AAS spoofs the private client instead.
func DefaultConfig() Config {
	return Config{GraphWrites: true, PrivateHourlyLimit: 360, OAuthHourlyLimit: 3}
}

// Verdict is a gatekeeper's decision about one request.
type Verdict struct {
	Kind        VerdictKind
	RemoveAfter time.Duration // for VerdictDelayRemove
}

// VerdictKind enumerates countermeasure decisions.
type VerdictKind int

// Verdict kinds.
const (
	VerdictAllow VerdictKind = iota
	VerdictBlock
	// VerdictDelayRemove lets the action through, then the platform
	// undoes it RemoveAfter later. Only follows support removal; for
	// other action types it degrades to allow (§6.1: "it was not possible
	// to apply a delayed countermeasure on likes").
	VerdictDelayRemove
)

// Allow is the zero verdict.
var Allow = Verdict{Kind: VerdictAllow}

// Gatekeeper interposes on every action request. The request is the Event
// that would be emitted, before its Outcome is set.
type Gatekeeper interface {
	Check(req Event) Verdict
}

// GatekeeperFunc adapts a function to the Gatekeeper interface.
type GatekeeperFunc func(req Event) Verdict

// Check implements Gatekeeper.
func (f GatekeeperFunc) Check(req Event) Verdict { return f(req) }

// Platform is the simulated service. All exported methods are safe for
// concurrent use. Mutable state is partitioned into lock-striped shards
// keyed by a stable hash of AccountID (shard.go): pure queries (Exists,
// LatestPost, PostAuthor, Posts, RecentByTag, …) take only the owning
// stripe's (or the post index's) read lock, so the parallel stepping
// engine's intent-generation phase can interrogate platform state from
// many workers at once, and mutations — registration, login, and the
// Do(Request) action pipeline with its rate-limit and gatekeeper checks
// — lock only the stripes they touch. In simulation, mutation runs on the single apply goroutine; the
// striping is what lets many planners read while it writes.
type Platform struct {
	cfg   Config
	graph *socialgraph.Graph
	net   *netsim.Registry
	clk   *clock.Clock
	sched *clock.Scheduler

	tags *hashtagIndex

	// shards stripe the account records and their rate-limit buckets by
	// hash(AccountID); posts is the dense post→author index. nextPost
	// allocates post IDs in stateless (GraphWrites off) mode.
	shards   []*shard
	posts    postIndex
	nextPost atomic.Uint64

	// nameMu guards the username index and serializes registration and
	// deletion (the only paths that mutate it). Ranked before every
	// shard lock; never acquired while one is held.
	nameMu     sync.RWMutex
	byUsername map[string]AccountID

	// hookMu guards the enforcement and fault-injection hook pointers,
	// which are installed at construction (faults) or between serial
	// experiment phases (gatekeepers) and read on every request.
	hookMu sync.RWMutex
	gate   Gatekeeper
	faults FaultInjector

	log EventLog

	// enforce tracks the delayed-removal actions scheduled by
	// VerdictDelayRemove that have not fired yet, in scheduling order.
	// Keeping them in a table (the scheduler closure only points into it)
	// is what lets snapshots serialize pending enforcement work. Touched
	// only from the single-threaded apply/scheduler path.
	enforce []*pendingEnforcement

	// tel holds pre-created instruments (nil = telemetry off). Set once
	// during world construction, before any traffic; see WireTelemetry.
	tel *platformMetrics

	// tracer records per-request spans (nil = tracing off, the cost of
	// one pointer check per request). Set once during world construction,
	// before any traffic; see SetTracer. Like the event stream itself,
	// span emission assumes requests run on the serial apply/scheduler
	// goroutine.
	tracer *trace.Tracer
}

// pendingEnforcement is one scheduled delayed-removal (§6.1): the follow
// from→to will be undone at due.
type pendingEnforcement struct {
	from, to AccountID
	due      time.Time
	done     bool
}

// platformMetrics caches one counter per hot-path cell so emission costs
// one array index plus an atomic add — no registry lookups, no locks.
// The instruments are pure observers: they never feed back into request
// handling, so metrics on/off cannot change any event.
type platformMetrics struct {
	// events[type][outcome] counts every emitted event.
	events [int(ActionLogin) + 1][int(OutcomeUnavailable) + 1]*telemetry.Counter

	rateLimited  *telemetry.Counter // ordinary API limit denials
	stormDenied  *telemetry.Counter // denials attributable to a rate-limit storm
	gateChecks   *telemetry.Counter // gatekeeper consultations
	verdictBlock *telemetry.Counter // synchronous blocks issued
	verdictDelay *telemetry.Counter // delayed removals scheduled
	enforcement  *telemetry.Counter // platform-performed removals landed
	duplicates   *telemetry.Counter // allowed structural no-ops
	accounts     *telemetry.Gauge   // live accounts
	logins       *telemetry.Counter
}

// WireTelemetry registers the platform's metric set in reg and starts
// recording. Call during construction, before traffic; a nil registry is
// a no-op (telemetry stays off). Besides the event and enforcement
// counters, each account shard gets a contention counter
// (platform.shard.NN.contention) counting acquisitions that found the
// stripe already held.
func (p *Platform) WireTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	m := &platformMetrics{
		rateLimited:  reg.Counter("platform.ratelimit.denied"),
		stormDenied:  reg.Counter("platform.ratelimit.storm_denied"),
		gateChecks:   reg.Counter("platform.gate.checks"),
		verdictBlock: reg.Counter("platform.gate.verdict.block"),
		verdictDelay: reg.Counter("platform.gate.verdict.delay_remove"),
		enforcement:  reg.Counter("platform.enforcement.removals"),
		duplicates:   reg.Counter("platform.events.duplicate"),
		accounts:     reg.Gauge("platform.accounts.live"),
		logins:       reg.Counter("platform.logins"),
	}
	for t := ActionLike; t <= ActionLogin; t++ {
		for o := OutcomeAllowed; o <= OutcomeUnavailable; o++ {
			m.events[t][o] = reg.Counter("platform.events." + t.String() + "." + o.String())
		}
	}
	reg.Gauge("platform.shards").Set(int64(len(p.shards)))
	for i, sh := range p.shards {
		sh.contention = reg.Counter(fmt.Sprintf("platform.shard.%02d.contention", i))
	}
	p.tel = m
}

// SetTracer installs the span tracer. Call during construction, before
// traffic; nil leaves tracing off. The tracer is a pure observer: it
// never feeds back into request handling, so tracing on/off cannot
// change any event (enforced in internal/simtest).
func (p *Platform) SetTracer(tr *trace.Tracer) { p.tracer = tr }

// shardIndexOf reports the index of the stripe owning id, for span
// attribution.
func (p *Platform) shardIndexOf(id AccountID) uint32 {
	return uint32(shardHash(uint64(id)) % uint64(len(p.shards)))
}

// New assembles a platform over the given substrates.
func New(cfg Config, g *socialgraph.Graph, net *netsim.Registry, sched *clock.Scheduler) *Platform {
	n := normShards(cfg.Shards)
	p := &Platform{
		cfg:        cfg,
		graph:      g,
		net:        net,
		clk:        sched.Clock(),
		sched:      sched,
		tags:       newHashtagIndex(),
		shards:     make([]*shard, n),
		byUsername: make(map[string]AccountID),
	}
	for i := range p.shards {
		p.shards[i] = newShard()
	}
	return p
}

// Reserve pre-sizes the platform and its graph for accounts more
// registrations: each shard's account table, rate-limit arrays and
// dense-row map get their share of the population (plus slack for hash
// imbalance), and the username index is sized once. A world that knows
// its population up front calls it before registering, so construction
// allocates each table once at its final size instead of doubling its
// way there. It never changes any ID, row or event.
func (p *Platform) Reserve(accounts int) {
	if accounts <= 0 {
		return
	}
	per := socialgraph.ShardCapacity(accounts, len(p.shards))
	for _, sh := range p.shards {
		sh.lock()
		sh.tab.grow(per)
		sh.limiter.reserve(sh.tab.len() + per)
		sh.mu.Unlock()
	}
	p.nameMu.Lock()
	byUsername := make(map[string]AccountID, len(p.byUsername)+accounts)
	maps.Copy(byUsername, p.byUsername)
	p.byUsername = byUsername
	p.nameMu.Unlock()
	p.graph.Reserve(accounts)
}

// Shards reports the configured lock-stripe count.
func (p *Platform) Shards() int { return len(p.shards) }

// NumAccounts reports the number of registered account rows, deleted
// ones included: rows are tombstoned rather than freed, so this is the
// resident table size — the denominator behind the bytes-per-account
// telemetry.
func (p *Platform) NumAccounts() int {
	n := 0
	for _, sh := range p.shards {
		sh.mu.RLock()
		n += sh.tab.len()
		sh.mu.RUnlock()
	}
	return n
}

// Log exposes the event stream for subscribers (detection, monitors).
func (p *Platform) Log() *EventLog { return &p.log }

// Graph exposes the underlying social graph (read access for analyses).
func (p *Platform) Graph() *socialgraph.Graph { return p.graph }

// Net exposes the network registry.
func (p *Platform) Net() *netsim.Registry { return p.net }

// Now returns the current simulated time.
func (p *Platform) Now() time.Time { return p.clk.Now() }

// SetGatekeeper installs gk as the enforcement hook. Passing nil removes
// all countermeasures.
func (p *Platform) SetGatekeeper(gk Gatekeeper) {
	p.hookMu.Lock()
	p.gate = gk
	p.hookMu.Unlock()
}

// hooks snapshots the gatekeeper and fault-injector pointers.
func (p *Platform) hooks() (Gatekeeper, FaultInjector) {
	p.hookMu.RLock()
	g, f := p.gate, p.faults
	p.hookMu.RUnlock()
	return g, f
}

// RegisterAccount creates an account with the given credentials and profile
// and returns its ID. The homeCountry is where the human behind the account
// usually logs in from.
func (p *Platform) RegisterAccount(username, password string, profile Profile, homeCountry string) (AccountID, error) {
	p.nameMu.Lock()
	defer p.nameMu.Unlock()
	if _, taken := p.byUsername[username]; taken {
		return 0, fmt.Errorf("%w: %q", ErrUsernameTaken, username)
	}
	id := p.graph.CreateAccount(p.clk.Now())
	sh := p.shardFor(id)
	sh.lock()
	r := sh.tab.add(id, username, password, profile, homeCountry, p.clk.Now())
	// The profile's initial photos exist as posts.
	if profile.PhotoCount > 0 {
		sh.tab.posts[r] = make([]PostID, 0, profile.PhotoCount)
	}
	for i := 0; i < profile.PhotoCount; i++ {
		p.addPostLocked(sh, r)
	}
	sh.mu.Unlock()
	p.byUsername[username] = id
	if m := p.tel; m != nil {
		m.accounts.Add(1)
	}
	return id, nil
}

// addPostLocked creates a post for row r of sh, whose lock the caller
// holds. It takes the post-index lock — account shard before post index
// is the canonical order.
func (p *Platform) addPostLocked(sh *shard, r uint32) PostID {
	id := sh.tab.id(r)
	var pid PostID
	if p.cfg.GraphWrites {
		var err error
		pid, err = p.graph.AddPost(id, p.clk.Now())
		if err != nil {
			panic(fmt.Sprintf("platform: graph post for live account: %v", err))
		}
	} else {
		pid = PostID(p.nextPost.Add(1))
	}
	sh.tab.posts[r] = append(sh.tab.posts[r], pid)
	p.posts.mu.Lock()
	p.posts.set(pid, id)
	p.posts.mu.Unlock()
	return pid
}

// DeleteAccount removes the account and, per the paper's honeypot protocol,
// all actions to or from it.
func (p *Platform) DeleteAccount(id AccountID) error {
	p.nameMu.Lock()
	defer p.nameMu.Unlock()
	sh := p.shardFor(id)
	sh.lock()
	r, ok := sh.tab.row(id)
	if !ok || sh.tab.deleted[r] {
		sh.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrAccountGone, id)
	}
	sh.tab.deleted[r] = true
	sh.tab.sessionEpochs[r]++ // revoke sessions
	username := sh.tab.usernames[r]
	posts := sh.tab.posts[r]
	sh.mu.Unlock()
	delete(p.byUsername, username)
	if m := p.tel; m != nil {
		m.accounts.Add(-1)
	}
	p.posts.mu.Lock()
	for _, pid := range posts {
		p.posts.author[pid] = 0
	}
	p.posts.mu.Unlock()
	if p.cfg.GraphWrites {
		return p.graph.DeleteAccount(id)
	}
	return nil
}

// ResetPassword changes the account's password and revokes every live
// session — the user-level remedy for evicting an AAS.
func (p *Platform) ResetPassword(id AccountID, newPassword string) error {
	sh := p.shardFor(id)
	sh.lock()
	defer sh.mu.Unlock()
	r, ok := sh.tab.row(id)
	if !ok || sh.tab.deleted[r] {
		return fmt.Errorf("%w: %d", ErrAccountGone, id)
	}
	sh.tab.passwords[r] = newPassword
	sh.tab.sessionEpochs[r]++
	return nil
}

// Exists reports whether the account is live.
func (p *Platform) Exists(id AccountID) bool {
	sh := p.shardFor(id)
	sh.rlock()
	defer sh.mu.RUnlock()
	r, ok := sh.tab.row(id)
	return ok && !sh.tab.deleted[r]
}

// AccountProfile returns the account's profile.
func (p *Platform) AccountProfile(id AccountID) (Profile, bool) {
	sh := p.shardFor(id)
	sh.rlock()
	defer sh.mu.RUnlock()
	r, ok := sh.tab.row(id)
	if !ok || sh.tab.deleted[r] {
		return Profile{}, false
	}
	return sh.tab.profiles[r], true
}

// Username returns the account's username.
func (p *Platform) Username(id AccountID) (string, bool) {
	sh := p.shardFor(id)
	sh.rlock()
	defer sh.mu.RUnlock()
	r, ok := sh.tab.row(id)
	if !ok || sh.tab.deleted[r] {
		return "", false
	}
	return sh.tab.usernames[r], true
}

// CreatedAt returns the account's registration time.
func (p *Platform) CreatedAt(id AccountID) (time.Time, bool) {
	sh := p.shardFor(id)
	sh.rlock()
	defer sh.mu.RUnlock()
	r, ok := sh.tab.row(id)
	if !ok {
		return time.Time{}, false
	}
	return sh.tab.created[r], true
}

// MostFrequentLoginCountry implements the paper's customer-location rule:
// "the most frequent country used to login to the account" (§5.1). The
// second result is false when the account has never logged in. The tally
// is sorted by country, so the first maximum is the tie-break winner
// (smallest country string), matching the historical map-scan rule.
func (p *Platform) MostFrequentLoginCountry(id AccountID) (string, bool) {
	sh := p.shardFor(id)
	sh.rlock()
	defer sh.mu.RUnlock()
	r, ok := sh.tab.row(id)
	if !ok {
		return "", false
	}
	best, n := "", 0
	for _, cc := range sh.tab.logins[r] {
		if cc.N > n {
			best, n = cc.Country, cc.N
		}
	}
	return best, n > 0
}

// Posts returns the account's post IDs in creation order.
func (p *Platform) Posts(id AccountID) []PostID {
	sh := p.shardFor(id)
	sh.rlock()
	defer sh.mu.RUnlock()
	r, ok := sh.tab.row(id)
	if !ok || sh.tab.deleted[r] {
		return nil
	}
	return append([]PostID(nil), sh.tab.posts[r]...)
}

// LatestPost returns the account's most recent post, if any.
func (p *Platform) LatestPost(id AccountID) (PostID, bool) {
	sh := p.shardFor(id)
	sh.rlock()
	defer sh.mu.RUnlock()
	r, ok := sh.tab.row(id)
	if !ok || sh.tab.deleted[r] {
		return 0, false
	}
	posts := sh.tab.posts[r]
	if len(posts) == 0 {
		return 0, false
	}
	return posts[len(posts)-1], true
}

// PostAuthor resolves a post to its author.
func (p *Platform) PostAuthor(pid PostID) (AccountID, bool) {
	p.posts.mu.RLock()
	defer p.posts.mu.RUnlock()
	return p.posts.get(pid)
}

// LikeCount returns the number of likes on pid as tracked by the platform
// (valid in both graph and stateless modes).
func (p *Platform) LikeCount(pid PostID) int {
	author, ok := p.PostAuthor(pid)
	if !ok {
		return 0
	}
	if p.cfg.GraphWrites {
		return p.graph.LikeCount(pid)
	}
	sh := p.shardFor(author)
	sh.rlock()
	defer sh.mu.RUnlock()
	if r, ok := sh.tab.row(author); ok {
		return sh.tab.likeCount(r, pid)
	}
	return 0
}

// ClientInfo describes the client a session presents to the platform.
type ClientInfo struct {
	IP          netip.Addr
	Fingerprint string // e.g. "mobile-official-v12", "mobile-spoof-instalex"
	API         APIKind
}

// Login authenticates and returns a session bound to the client info. The
// login is recorded as an event and feeds geolocation.
func (p *Platform) Login(username, password string, ci ClientInfo) (*Session, error) {
	p.nameMu.RLock()
	id, ok := p.byUsername[username]
	p.nameMu.RUnlock()
	if !ok {
		return nil, ErrBadCredentials
	}
	var sp *trace.Active
	if tr := p.tracer; tr != nil {
		sp = tr.StartRequest(trace.KindLogin, uint64(id), p.shardIndexOf(id), uint8(ActionLogin))
	}
	_, faults := p.hooks()
	sh := p.shardFor(id)
	sh.lock()
	r, ok := sh.tab.row(id)
	if !ok || sh.tab.deleted[r] || sh.tab.passwords[r] != password {
		sh.mu.Unlock()
		sp.Stage(trace.StageSession, trace.VerdictFail)
		sp.End(uint8(OutcomeFailed), 0, 0, 0)
		return nil, ErrBadCredentials
	}
	sp.Stage(trace.StageSession, trace.VerdictOK)
	if faults != nil {
		asn, _ := p.net.Lookup(ci.IP)
		if d := faults.Decide(p.clk.Now(), id, ActionLogin, asn, 0); d.Unavailable {
			// The auth frontend is down: no session, no event, and no
			// geolocation update — the request never reached the app tier.
			sh.mu.Unlock()
			sp.Stage(trace.StageFaults, trace.VerdictUnavailable)
			sp.End(uint8(OutcomeUnavailable), 0, 0, uint32(asn))
			return nil, ErrUnavailable
		}
	}
	sp.Stage(trace.StageFaults, trace.VerdictOK)
	country := p.net.Country(ci.IP)
	if country != "" {
		sh.tab.bumpLogin(r, country)
	}
	epoch := sh.tab.sessionEpochs[r]
	now := p.clk.Now()
	sh.mu.Unlock()

	ev := p.emitSpan(Event{
		Time: now, Type: ActionLogin, Actor: id, IP: ci.IP,
		Client: ci.Fingerprint, API: ci.API, Outcome: OutcomeAllowed,
	}, sp)
	endSpan(sp, ev)
	return &Session{p: p, id: id, epoch: epoch, client: ci}, nil
}

// emit resolves the ASN and delivers the event. Callers must NOT hold any
// shard or stripe lock: subscribers may call back into the platform.
func (p *Platform) emit(ev Event) { p.emitSpan(ev, nil) }

// emitSpan is emit with stage marks on an in-flight span: the telemetry
// stage covers ASN resolution plus counter increments, the emit stage
// covers the subscriber fan-out. It returns the event with its ASN
// resolved so the caller can close the span with attribution fields.
func (p *Platform) emitSpan(ev Event, sp *trace.Active) Event {
	if asn, ok := p.net.Lookup(ev.IP); ok {
		ev.ASN = asn
	}
	if m := p.tel; m != nil {
		if int(ev.Type) < len(m.events) && int(ev.Outcome) < len(m.events[0]) {
			m.events[ev.Type][ev.Outcome].Inc()
		}
		if ev.Enforcement {
			m.enforcement.Inc()
		}
		if ev.Duplicate {
			m.duplicates.Inc()
		}
		if ev.Type == ActionLogin {
			m.logins.Inc()
		}
	}
	sp.Stage(trace.StageTelemetry, trace.VerdictOK)
	p.log.Emit(ev)
	sp.Stage(trace.StageEmit, trace.VerdictOK)
	return ev
}

// endSpan closes a request span with the emitted event's terminal
// attribution fields.
func endSpan(sp *trace.Active, ev Event) {
	sp.End(uint8(ev.Outcome), uint64(ev.Target), uint64(ev.Post), uint32(ev.ASN))
}
