package simtest

import (
	"fmt"
	"strings"
	"testing"

	"footsteps/internal/core"
	"footsteps/internal/platform"
	"footsteps/internal/step"
)

// TestPhaseGuard asserts the single-writer rule instead of assuming it:
// every platform and graph mutator panics, naming itself, when called
// from a step.RunInto plan callback of the world's pool — where, on the
// world loop's one goroutine, -race sees nothing — and the same call from
// the apply phase goes through. The case keeps its workers=1 name.
func TestPhaseGuard(t *testing.T) {
	t.Parallel()
	t.Run("workers=1", func(t *testing.T) {
		t.Parallel()
		cfg := smallConfig(1)
		cfg.GraphWrites = true
		w := core.NewWorld(cfg)
		p, g := w.Plat, w.Plat.Graph()
		a, err := p.RegisterAccount("guard-a", "pw", platform.Profile{PhotoCount: 1}, "USA")
		if err != nil {
			t.Fatal(err)
		}
		b, err := p.RegisterAccount("guard-b", "pw", platform.Profile{PhotoCount: 1}, "USA")
		if err != nil {
			t.Fatal(err)
		}
		sess, err := p.Login("guard-a", "pw", platform.ClientInfo{})
		if err != nil {
			t.Fatal(err)
		}
		pid, _ := p.LatestPost(b)
		gst, pst := g.SnapshotState(), p.SnapshotState()
		now := p.Now()
		registered := 0

		type mutator struct {
			op   string
			call func()
		}
		mutators := []mutator{
			{"platform.Do", func() { sess.Do(platform.Request{Action: platform.ActionFollow, Target: b}) }},
			{"platform.RegisterAccount", func() {
				registered++
				p.RegisterAccount(fmt.Sprintf("guard-new-%d", registered), "pw", platform.Profile{}, "USA")
			}},
			{"platform.Login", func() { p.Login("guard-b", "pw", platform.ClientInfo{}) }},
			{"platform.ResetPassword", func() { p.ResetPassword(b, "pw") }},
			{"platform.TagPost", func() { p.TagPost(b, pid, "guard") }},
			{"platform.SetGatekeeper", func() { w.SetExperimentGatekeeper(nil) }},
			{"platform.SetFaultInjector", func() { p.SetFaultInjector(nil) }},
			{"platform.Reserve", func() { p.Reserve(1) }},
			{"socialgraph.RestoreState", func() { g.RestoreState(gst) }},
			{"platform.RestoreState", func() { p.RestoreState(pst) }},
			{"socialgraph.CreateAccount", func() { g.CreateAccount(now) }},
			{"socialgraph.Follow", func() { g.Follow(b, a) }},
			{"socialgraph.Unfollow", func() { g.Unfollow(b, a) }},
			{"socialgraph.AddPost", func() { g.AddPost(a, now) }},
			{"socialgraph.Like", func() { g.Like(a, pid) }},
			{"socialgraph.Unlike", func() { g.Unlike(a, pid) }},
			{"socialgraph.AddComment", func() { g.AddComment(a, pid, "guard", now) }},
			{"platform.DeleteAccount", func() { p.DeleteAccount(b) }},
			{"socialgraph.DeleteAccount", func() { g.DeleteAccount(a) }},
		}

		planPanics := make([]any, len(mutators))
		applied := 0
		step.RunInto(w.Steps, &step.Buffers[int]{}, len(mutators), func(i int, emit func(int)) {
			func() {
				defer func() { planPanics[i] = recover() }()
				mutators[i].call()
			}()
			emit(i)
		}, func(i int) {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s panicked in the apply phase: %v", mutators[i].op, r)
				}
			}()
			mutators[i].call()
			applied++
		})
		for i, m := range mutators {
			msg, _ := planPanics[i].(string)
			if !strings.Contains(msg, m.op) {
				t.Errorf("%s from the plan phase: recovered %v, want a panic naming it", m.op, planPanics[i])
			}
		}
		if applied != len(mutators) {
			t.Errorf("apply phase ran %d of %d mutators", applied, len(mutators))
		}
	})
}
