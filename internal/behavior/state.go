package behavior

import (
	"slices"
	"sort"
	"time"

	"footsteps/internal/platform"
	"footsteps/internal/rng"
)

// Snapshot/restore support (see internal/persistence). Member order is
// preserved verbatim — p.ids drives iteration in the posting planner, so
// the serialized order is the creation order, not a sorted one.

// State is the complete mutable state of a Population.
type State struct {
	RNG      rng.State
	NextName int
	Members  []MemberState // in creation (p.ids) order
	General  []platform.AccountID
	Pools    []PoolState    // sorted by label
	Reacted  []ChannelCount // sorted by channel
	// Reactions are the scheduled-but-unfired reciprocal actions, in
	// scheduling order.
	Reactions []ReactionState
}

// MemberState is one organic member, flattened.
type MemberState struct {
	Profile Profile
	Tag     string
	Session platform.SessionState
	RNG     rng.State
}

// PoolState is one curated pool's membership.
type PoolState struct {
	Label string
	IDs   []platform.AccountID
}

// ChannelCount is one reciprocation-channel tally.
type ChannelCount struct {
	Channel string
	N       int
}

// ReactionState is one pending reciprocal action.
type ReactionState struct {
	Member  platform.AccountID
	Actor   platform.AccountID
	Action  platform.ActionType
	Channel string
	Due     time.Time
}

// SnapshotState captures the population's complete mutable state.
func (p *Population) SnapshotState() *State {
	st := &State{
		RNG:      p.rng.State(),
		NextName: p.nextName,
		General:  append([]platform.AccountID(nil), p.general...),
	}
	for _, id := range p.ids {
		m := p.members[id]
		st.Members = append(st.Members, MemberState{
			Profile: m.profile,
			Tag:     m.tag,
			Session: platform.CaptureSession(m.session),
			RNG:     m.rng.State(),
		})
	}
	for label, ids := range p.pools {
		st.Pools = append(st.Pools, PoolState{Label: label, IDs: append([]platform.AccountID(nil), ids...)})
	}
	sort.Slice(st.Pools, func(i, j int) bool { return st.Pools[i].Label < st.Pools[j].Label })
	for ch, n := range p.Reacted {
		st.Reacted = append(st.Reacted, ChannelCount{Channel: ch, N: n})
	}
	sort.Slice(st.Reacted, func(i, j int) bool { return st.Reacted[i].Channel < st.Reacted[j].Channel })
	for _, e := range p.reactions {
		if e.done {
			continue
		}
		st.Reactions = append(st.Reactions, ReactionState{
			Member: e.member, Actor: e.actor, Action: e.action, Channel: e.channel, Due: e.due,
		})
	}
	return st
}

// RestoreState overwrites the population's mutable state with a
// snapshot. The caller must re-register pending reactions separately via
// RestoreReactions once the scheduler sits at the snapshot instant.
func (p *Population) RestoreState(st *State) {
	p.rng.SetState(st.RNG)
	p.nextName = st.NextName
	clear(p.members)
	p.ids = slices.Grow(p.ids[:0], len(st.Members))
	p.general = append(p.general[:0], st.General...)
	clear(p.pools)
	for i := range st.Members {
		ms := &st.Members[i]
		m := &member{
			profile: ms.Profile,
			session: p.plat.RestoreSession(ms.Session),
			tag:     ms.Tag,
			rng:     rng.FromState(ms.RNG),
		}
		if m.tag != "" {
			m.tags = []string{m.tag}
		}
		p.members[ms.Profile.ID] = m
		p.ids = append(p.ids, ms.Profile.ID)
	}
	for _, ps := range st.Pools {
		p.pools[ps.Label] = append([]platform.AccountID(nil), ps.IDs...)
	}
	clear(p.Reacted)
	for _, cc := range st.Reacted {
		p.Reacted[cc.Channel] = cc.N
	}
}

// RestoreReactions re-registers pending reciprocal actions from a
// snapshot, in their original scheduling order.
func (p *Population) RestoreReactions(sts []ReactionState) {
	p.reactions = p.reactions[:0]
	for _, rs := range sts {
		e := &pendingReaction{
			member: rs.Member, actor: rs.Actor, action: rs.Action,
			channel: rs.Channel, due: rs.Due,
		}
		p.reactions = append(p.reactions, e)
		p.sched.At(e.due, func() { p.fireReaction(e) })
	}
}
