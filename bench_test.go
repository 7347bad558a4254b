// Benchmarks regenerating every table and figure in the paper's evaluation
// (Tables 1–11, Figures 2–7) plus ablations of the design choices called
// out in DESIGN.md §5.
//
// Expensive studies (the 90-day business characterization, the multi-week
// interventions) run once and are shared across the benchmarks that read
// different tables from the same results — exactly as in the paper, where
// one measurement window feeds many tables. Run with -v to see the
// regenerated tables:
//
//	go test -bench=. -benchmem -v
package footsteps_test

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"footsteps"

	"footsteps/internal/aas"
	"footsteps/internal/clock"
	"footsteps/internal/core"
	"footsteps/internal/detection"
	"footsteps/internal/durable"
	"footsteps/internal/eventio"
	"footsteps/internal/faults"
	"footsteps/internal/intervention"
	"footsteps/internal/persistence"
	"footsteps/internal/platform"
	"footsteps/internal/trace"
)

// benchBusinessCfg runs the §5 window at 1/500 of paper scale.
func benchBusinessCfg() footsteps.Config {
	cfg := footsteps.DefaultConfig()
	cfg.Days = 90
	return cfg
}

// benchInterventionCfg keeps enough Boostgram customers per bin while
// shrinking the heaviest services.
func benchInterventionCfg(days int) footsteps.Config {
	cfg := footsteps.TestConfig()
	cfg.Days = days
	cfg.Scale = 1.0 / 100
	cfg.ScaleOverride = map[string]float64{
		aas.NameHublaagram: 0.08,
		aas.NameInstalex:   0.15,
		aas.NameInstazood:  0.15,
	}
	return cfg
}

var (
	businessOnce sync.Once
	businessRes  *footsteps.BusinessResults

	narrowOnce sync.Once
	narrowRes  *footsteps.InterventionResults

	broadOnce sync.Once
	broadRes  *footsteps.InterventionResults
)

func businessResults(b *testing.B) *footsteps.BusinessResults {
	b.Helper()
	businessOnce.Do(func() {
		study := footsteps.NewStudy(benchBusinessCfg())
		res, err := study.Business()
		if err != nil {
			b.Fatalf("business study: %v", err)
		}
		businessRes = res
	})
	if businessRes == nil {
		b.Skip("business study failed earlier")
	}
	return businessRes
}

func narrowResults(b *testing.B) *footsteps.InterventionResults {
	b.Helper()
	narrowOnce.Do(func() {
		study := footsteps.NewStudy(benchInterventionCfg(2 + 7 + 42))
		res, err := study.NarrowIntervention(7, 6)
		if err != nil {
			b.Fatalf("narrow intervention: %v", err)
		}
		narrowRes = res
	})
	if narrowRes == nil {
		b.Skip("narrow intervention failed earlier")
	}
	return narrowRes
}

func broadResults(b *testing.B) *footsteps.InterventionResults {
	b.Helper()
	broadOnce.Do(func() {
		study := footsteps.NewStudy(benchInterventionCfg(2 + 7 + 14))
		res, err := study.BroadIntervention(7, 14, 6)
		if err != nil {
			b.Fatalf("broad intervention: %v", err)
		}
		broadRes = res
	})
	if broadRes == nil {
		b.Skip("broad intervention failed earlier")
	}
	return broadRes
}

// --- Tables 1–4: static catalog data -----------------------------------

func BenchmarkTable1(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = footsteps.FormatTable1()
	}
	b.Log("\n" + out)
}

func BenchmarkTable2(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = footsteps.FormatTable2()
	}
	b.Log("\n" + out)
}

func BenchmarkTable3(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = footsteps.FormatTable3()
	}
	b.Log("\n" + out)
}

func BenchmarkTable4(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = footsteps.FormatTable4()
	}
	b.Log("\n" + out)
}

// --- Table 5: honeypot reciprocation measurement ------------------------

func BenchmarkTable5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := footsteps.TestConfig()
		cfg.GraphWrites = true
		cfg.PoolSize = 2500
		study := footsteps.NewStudy(cfg)
		tbl, err := study.Reciprocation(9, 3)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + footsteps.FormatTable5(tbl))
			if c, ok := tbl.Cell(aas.NameBoostgram, 1 /* lived-in */, platform.ActionFollow); ok {
				b.ReportMetric(c.InFollowRate*100, "livedin-follow-pct")
			}
		}
	}
}

// --- Tables 6–11 and Figures 2–4: the §5 business window ----------------

func BenchmarkTable6(b *testing.B) {
	res := businessResults(b)
	for i := 0; i < b.N; i++ {
		_ = footsteps.FormatBusiness(res)
	}
	split := res.Table6[aas.NameHublaagram]
	if split.Customers > 0 {
		b.ReportMetric(float64(split.LongTerm)/float64(split.Customers)*100, "hubla-longterm-pct")
	}
	b.Log("\n" + footsteps.FormatBusiness(res))
}

func BenchmarkTable7(b *testing.B) {
	res := businessResults(b)
	rows := 0
	for i := 0; i < b.N; i++ {
		rows = len(res.Table7)
	}
	b.ReportMetric(float64(rows), "services")
}

func BenchmarkTable8(b *testing.B) {
	res := businessResults(b)
	var monthly float64
	for i := 0; i < b.N; i++ {
		monthly = res.Table8Boostgram.Monthly
	}
	b.ReportMetric(monthly, "boostgram-usd-month")
	b.ReportMetric(res.Table8InstaLow.Monthly, "insta-low-usd-month")
	b.ReportMetric(res.Table8InstaHigh.Monthly, "insta-high-usd-month")
}

func BenchmarkTable9(b *testing.B) {
	res := businessResults(b)
	var low float64
	for i := 0; i < b.N; i++ {
		low = res.Table9.MonthlyLow
	}
	b.ReportMetric(low, "hubla-usd-month-low")
	b.ReportMetric(res.Table9.MonthlyHigh, "hubla-usd-month-high")
	b.ReportMetric(float64(res.Table9.NoOutboundAccounts), "no-outbound-accounts")
}

func BenchmarkTable10(b *testing.B) {
	res := businessResults(b)
	var pre float64
	for i := 0; i < b.N; i++ {
		pre = res.Table10[aas.NameBoostgram].PreexistingFraction
	}
	b.ReportMetric(pre*100, "boostgram-preexisting-pct")
}

func BenchmarkTable11(b *testing.B) {
	res := businessResults(b)
	var likes float64
	for i := 0; i < b.N; i++ {
		likes = res.Table11[aas.NameBoostgram][platform.ActionLike]
	}
	b.ReportMetric(likes*100, "boostgram-like-pct")
	b.ReportMetric(res.Table11[core.LabelInstaStar][platform.ActionFollow]*100, "insta-follow-pct")
}

func BenchmarkFigure2(b *testing.B) {
	res := businessResults(b)
	var top string
	for i := 0; i < b.N; i++ {
		if shares := res.Figure2[aas.NameHublaagram]; len(shares) > 0 {
			top = shares[0].Country
		}
	}
	if top == "" {
		b.Fatal("no country distribution")
	}
}

func BenchmarkFigure3(b *testing.B) {
	res := businessResults(b)
	var median float64
	for i := 0; i < b.N; i++ {
		median = res.Figure3[aas.NameBoostgram].Median()
	}
	b.ReportMetric(median, "target-following-median")
	b.ReportMetric(res.Figure3["Random"].Median(), "random-following-median")
}

func BenchmarkFigure4(b *testing.B) {
	res := businessResults(b)
	var median float64
	for i := 0; i < b.N; i++ {
		median = res.Figure4[aas.NameBoostgram].Median()
	}
	b.ReportMetric(median, "target-followers-median")
	b.ReportMetric(res.Figure4["Random"].Median(), "random-followers-median")
}

// --- Figures 5–7: intervention experiments ------------------------------

func BenchmarkFigure5(b *testing.B) {
	res := narrowResults(b)
	var threshold float64
	for i := 0; i < b.N; i++ {
		threshold = res.Figure5.Threshold
	}
	b.ReportMetric(threshold, "follow-threshold")
	// Late-experiment medians: the block arm hugs the threshold, the
	// control arm stays at plan.
	lateMean := func(s core.DailySeries) float64 {
		sum, n := 0.0, 0
		for d := res.Figure5.Days / 2; d < res.Figure5.Days; d++ {
			if s.Seen[d] {
				sum += s.Values[d]
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	b.ReportMetric(lateMean(res.Figure5.Block), "block-median-late")
	b.ReportMetric(lateMean(res.Figure5.Control), "control-median-late")
	b.Log("\n" + footsteps.FormatIntervention(res))
}

func BenchmarkFigure6(b *testing.B) {
	res := narrowResults(b)
	blockArm := res.Figure6.Arms[intervention.AssignBlock]
	var early, late float64
	for i := 0; i < b.N; i++ {
		early, late = armWindowMean(blockArm, 0, 7), armWindowMean(blockArm, res.Figure6.Days-7, res.Figure6.Days)
	}
	b.ReportMetric(early*100, "eligible-pct-week1")
	b.ReportMetric(late*100, "eligible-pct-final-week")
}

func BenchmarkFigure7(b *testing.B) {
	res := broadResults(b)
	delayArm := res.Figure7.Arms[intervention.AssignDelay]
	blockArm := res.Figure7.Arms[intervention.AssignBlock]
	var week1, week2 float64
	for i := 0; i < b.N; i++ {
		week1 = armWindowMean(delayArm, 1, 6)
		week2 = armWindowMean(blockArm, 9, 14)
	}
	b.ReportMetric(week1*100, "eligible-pct-delay-week")
	b.ReportMetric(week2*100, "eligible-pct-block-week")
}

func armWindowMean(s core.DailySeries, from, to int) float64 {
	sum, n := 0.0, 0
	for d := from; d < to && d < len(s.Seen); d++ {
		if s.Seen[d] {
			sum += s.Values[d]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// --- End-to-end study benchmarks (wall-clock cost of each experiment) ---

func BenchmarkBusinessStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchBusinessCfg()
		cfg.Days = 30 // one month per iteration keeps -bench affordable
		study := footsteps.NewStudy(cfg)
		if _, err := study.Business(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAdaptationStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		study := footsteps.NewStudy(benchInterventionCfg(22))
		res, err := study.Adaptation(4, 7)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			p1 := res.Phase1[aas.NameHublaagram]
			p2 := res.Phase2[aas.NameHublaagram]
			b.ReportMetric(p1.BlockedFraction()*100, "blocked-pct-pre-evasion")
			b.ReportMetric(p2.BlockedFraction()*100, "blocked-pct-post-evasion")
			b.ReportMetric(float64(res.ProxyDiversity[aas.NameHublaagram]), "proxy-asns")
		}
	}
}

// --- Ablations (DESIGN.md §5) -------------------------------------------

// BenchmarkAblationThreshold sweeps the mixed-ASN benign percentile and
// reports the trade-off between benign collateral and abuse truncation.
func BenchmarkAblationThreshold(b *testing.B) {
	for _, pctl := range []float64{0.90, 0.99} {
		name := "p90"
		if pctl == 0.99 {
			name = "p99"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := benchInterventionCfg(2 + 5 + 7)
				w := core.NewWorld(cfg)
				classifier, err := w.TrainClassifier(2)
				if err != nil {
					b.Fatal(err)
				}
				cal := detection.NewCalibrator(classifier.Classify)
				cal.MixedPercentile = pctl
				w.Plat.Log().Subscribe(cal.Observe)
				w.Sched.EveryDay(23*time.Hour+50*time.Minute, 5, func(int) { cal.EndDay() })
				w.RunAll()
				w.Sched.RunFor(5 * clock.Day)
				ctl := intervention.New(cal.Compute(), classifier.Classify,
					intervention.BroadPolicy(9, 0), w.Plat.Now(), 24*time.Hour)
				w.Plat.SetGatekeeper(ctl)
				w.Sched.RunFor(7 * clock.Day)
				if i == 0 {
					b.ReportMetric(float64(ctl.BenignTouched()), "benign-touched")
					st := ctl.Stats(3, aas.NameHublaagram, platform.ActionLike, intervention.AssignBlock)
					if st.Attempts > 0 {
						b.ReportMetric(float64(st.Eligible)/float64(st.Attempts)*100, "abuse-eligible-pct")
					}
				}
			}
		})
	}
}

// BenchmarkAblationTargeting compares the reciprocation yield of curated
// targeting against spraying random users — why the services curate (§5.3).
func BenchmarkAblationTargeting(b *testing.B) {
	run := func(b *testing.B, curated bool) float64 {
		cfg := footsteps.TestConfig()
		cfg.GraphWrites = true
		cfg.PoolSize = 2000
		cfg.OrganicPopulation = 2000
		w := core.NewWorld(cfg)
		svc := w.Recip[aas.NameBoostgram]
		if !curated {
			svc.SetTargetPool(w.Pop.RandomSample(2000))
		}
		hp, err := w.Honeypots.Create(1 /* lived-in */)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := svc.EnrollTrial(hp.Username, hp.Password, aas.OfferFollow); err != nil {
			b.Fatal(err)
		}
		w.Sched.RunFor(5 * clock.Day)
		return hp.ReciprocationRate(platform.ActionFollow, platform.ActionFollow)
	}
	b.Run("curated", func(b *testing.B) {
		var rate float64
		for i := 0; i < b.N; i++ {
			rate = run(b, true)
		}
		b.ReportMetric(rate*100, "follow-reciprocation-pct")
	})
	b.Run("random", func(b *testing.B) {
		var rate float64
		for i := 0; i < b.N; i++ {
			rate = run(b, false)
		}
		b.ReportMetric(rate*100, "follow-reciprocation-pct")
	})
}

// BenchmarkAblationTechnique compares the two laundering techniques on
// outbound actions spent per inbound action delivered to the customer.
func BenchmarkAblationTechnique(b *testing.B) {
	b.Run("reciprocity", func(b *testing.B) {
		var costPerInbound float64
		for i := 0; i < b.N; i++ {
			cfg := footsteps.TestConfig()
			cfg.GraphWrites = true
			cfg.PoolSize = 2000
			w := core.NewWorld(cfg)
			svc := w.Recip[aas.NameBoostgram]
			hp, _ := w.Honeypots.Create(0 /* empty */)
			svc.EnrollTrial(hp.Username, hp.Password, aas.OfferFollow)
			w.Sched.RunFor(5 * clock.Day)
			out := hp.Outbound[platform.ActionFollow]
			in := hp.Inbound[platform.ActionFollow]
			if in > 0 {
				costPerInbound = float64(out) / float64(in)
			}
		}
		b.ReportMetric(costPerInbound, "outbound-per-inbound")
	})
	b.Run("collusion", func(b *testing.B) {
		var costPerInbound float64
		for i := 0; i < b.N; i++ {
			cfg := footsteps.TestConfig()
			cfg.GraphWrites = true
			w := core.NewWorld(cfg)
			svc := w.Coll[aas.NameHublaagram]
			// A hundred network members plus the measured honeypot.
			for j := 0; j < 100; j++ {
				hp, _ := w.Honeypots.Create(0)
				c, _ := svc.EnrollFree(hp.Username, hp.Password)
				c.EngagedUntil = c.EnrolledAt.Add(10 * clock.Day)
			}
			hp, _ := w.Honeypots.Create(0)
			c, err := svc.EnrollFree(hp.Username, hp.Password, aas.OfferFollow)
			if err != nil {
				b.Fatal(err)
			}
			delivered, _ := svc.RequestFree(c, aas.OfferFollow)
			if delivered > 0 {
				// Collusion spends exactly one outbound action elsewhere
				// per inbound action delivered.
				costPerInbound = 1
			}
			w.Sched.RunFor(clock.Day)
		}
		b.ReportMetric(costPerInbound, "outbound-per-inbound")
	})
}

// BenchmarkAblationCountermeasure compares block and delay on the quantity
// that matters to the platform: artificial follows surviving at the end of
// the experiment — and on the signal leaked to the adversary.
func BenchmarkAblationCountermeasure(b *testing.B) {
	run := func(b *testing.B, policy intervention.Policy) (surviving int, blockedSeen int) {
		cfg := benchInterventionCfg(2 + 5 + 10)
		w := core.NewWorld(cfg)
		classifier, err := w.TrainClassifier(2)
		if err != nil {
			b.Fatal(err)
		}
		allowed, removed, blocked := 0, 0, 0
		w.Plat.Log().Subscribe(func(ev platform.Event) {
			if _, ok := classifier.Classify(ev); !ok && !ev.Enforcement {
				return
			}
			switch {
			case ev.Type == platform.ActionFollow && ev.Enforcement:
				removed++
			case ev.Type == platform.ActionFollow && ev.Outcome == platform.OutcomeAllowed:
				allowed++
			case ev.Type == platform.ActionFollow && ev.Outcome == platform.OutcomeBlocked:
				blocked++
			}
		})
		cal := detection.NewCalibrator(classifier.Classify)
		w.Plat.Log().Subscribe(cal.Observe)
		w.Sched.EveryDay(23*time.Hour+50*time.Minute, 5, func(int) { cal.EndDay() })
		w.RunAll()
		w.Sched.RunFor(5 * clock.Day)
		allowed, removed, blocked = 0, 0, 0 // reset after calibration
		ctl := intervention.New(cal.Compute(), classifier.Classify, policy, w.Plat.Now(), 24*time.Hour)
		w.Plat.SetGatekeeper(ctl)
		w.Sched.RunFor(10 * clock.Day)
		w.Sched.RunFor(2 * clock.Day) // let scheduled removals land
		return allowed - removed, blocked
	}
	b.Run("block", func(b *testing.B) {
		var surviving, blocked int
		for i := 0; i < b.N; i++ {
			surviving, blocked = run(b, intervention.BroadPolicy(9, 0))
		}
		b.ReportMetric(float64(surviving), "surviving-follows")
		b.ReportMetric(float64(blocked), "adversary-visible-blocks")
	})
	b.Run("delay", func(b *testing.B) {
		var surviving, blocked int
		for i := 0; i < b.N; i++ {
			surviving, blocked = run(b, intervention.BroadPolicy(9, 1000))
		}
		b.ReportMetric(float64(surviving), "surviving-follows")
		b.ReportMetric(float64(blocked), "adversary-visible-blocks")
	})
}

// BenchmarkGraphDetection runs the FRAUDAR baseline vs signal attribution
// comparison (the paper's motivation for signal-based detection).
func BenchmarkGraphDetection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := footsteps.TestConfig()
		cfg.Days = 20
		cfg.Scale = 1.0 / 500
		w := core.NewWorld(cfg)
		res, err := w.GraphDetectionStudy()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Fraudar[aas.NameHublaagram].Recall*100, "fraudar-hubla-recall-pct")
			b.ReportMetric(res.Fraudar[aas.NameBoostgram].Recall*100, "fraudar-boost-recall-pct")
			b.ReportMetric(res.Signature[aas.NameBoostgram].Recall*100, "signal-boost-recall-pct")
		}
	}
}

// BenchmarkParallelStep measures whole-world tick throughput across
// worker-pool sizes, driving the scheduler tick by tick via StepTick —
// the parallel-stepping hot path. The event stream is byte-identical at
// every worker count (see internal/simtest); this benchmark quantifies
// the wall-clock side of that trade. Speedup requires physical cores:
// on a single-CPU host the worker counts should bench within noise of
// each other, which is itself worth watching — it bounds the
// coordination overhead the pool adds when parallelism is unavailable.
func BenchmarkParallelStep(b *testing.B) {
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			totalTicks, totalEvents := 0, 0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cfg := footsteps.TestConfig()
				cfg.Days = 10
				cfg.Workers = workers
				w := core.NewWorld(cfg)
				w.RunAll()
				deadline := w.Plat.Now().Add(time.Duration(cfg.Days) * clock.Day)
				events := 0
				w.Plat.Log().Subscribe(func(platform.Event) { events++ })
				b.StartTimer()
				for {
					at, ran := w.Sched.StepTick()
					if ran == 0 || at.After(deadline) {
						break
					}
					totalTicks++
				}
				totalEvents += events
			}
			b.ReportMetric(float64(totalTicks)/float64(b.N), "ticks/op")
			b.ReportMetric(float64(totalEvents)/float64(b.N), "events/op")
			// Absolute throughput alongside the per-op normalizations:
			// wall-clock per simulated tick and simulated events per second
			// of benchmark time.
			if totalTicks > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(totalTicks), "ns/tick")
			}
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(totalEvents)/secs, "events/sec")
			}
		})
	}
}

// BenchmarkParallelStepFaults is BenchmarkParallelStep with the
// "mixed" fault scenario active: the same tick loop now pays the
// injector's pure-hash verdict on every request plus the client-side
// retry/breaker machinery. Comparing ns/tick against the faults-off
// run bounds the injection overhead (target: the faults-off numbers in
// BenchmarkParallelStep move by under 5%, since a nil injector is one
// pointer check).
func BenchmarkParallelStepFaults(b *testing.B) {
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			totalTicks, totalEvents := 0, 0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cfg := footsteps.TestConfig()
				cfg.Days = 10
				cfg.Workers = workers
				cfg.Faults = faults.MustScenario("mixed")
				w := core.NewWorld(cfg)
				w.RunAll()
				deadline := w.Plat.Now().Add(time.Duration(cfg.Days) * clock.Day)
				events := 0
				w.Plat.Log().Subscribe(func(platform.Event) { events++ })
				b.StartTimer()
				for {
					at, ran := w.Sched.StepTick()
					if ran == 0 || at.After(deadline) {
						break
					}
					totalTicks++
				}
				totalEvents += events
			}
			b.ReportMetric(float64(totalTicks)/float64(b.N), "ticks/op")
			b.ReportMetric(float64(totalEvents)/float64(b.N), "events/op")
			if totalTicks > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(totalTicks), "ns/tick")
			}
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(totalEvents)/secs, "events/sec")
			}
		})
	}
}

// BenchmarkAblationAPI quantifies why AASs spoof the private mobile API:
// the public OAuth surface is rate-limited into uselessness (§2).
func BenchmarkAblationAPI(b *testing.B) {
	run := func(b *testing.B, api platform.APIKind) int {
		cfg := footsteps.TestConfig()
		cfg.GraphWrites = true
		cfg.PoolSize = 1500
		w := core.NewWorld(cfg)
		svc := w.Recip[aas.NameBoostgram]
		svc.SetAPI(api)
		hp, err := w.Honeypots.Create(0)
		if err != nil {
			b.Fatal(err)
		}
		c, err := svc.EnrollTrial(hp.Username, hp.Password, aas.OfferLike)
		if err != nil {
			b.Fatal(err)
		}
		delivered := 0
		w.Plat.Log().Subscribe(func(ev platform.Event) {
			if ev.Actor == c.Account && ev.Type == platform.ActionLike && ev.Outcome == platform.OutcomeAllowed {
				delivered++
			}
		})
		w.Sched.RunFor(2 * clock.Day)
		return delivered
	}
	b.Run("private", func(b *testing.B) {
		var n int
		for i := 0; i < b.N; i++ {
			n = run(b, platform.APIPrivate)
		}
		b.ReportMetric(float64(n)/2, "likes-per-day")
	})
	b.Run("oauth", func(b *testing.B) {
		var n int
		for i := 0; i < b.N; i++ {
			n = run(b, platform.APIOAuth)
		}
		b.ReportMetric(float64(n)/2, "likes-per-day")
	})
}

// BenchmarkScaleWorld is the BENCH_SCALE arm: a million-account,
// 90-day world — the paper's full population at its full measurement
// window — exercising the struct-of-arrays account tables, compact
// adjacency, and dense per-account tallies at the scale they were
// built for. Beyond ns/tick it reports the two numbers the scale work
// is judged on: live B/account (heap after a final GC over resident
// account rows) and the peak heap high-water mark, sampled once per
// simulated day (ReadMemStats daily is noise next to a day of ticks).
//
// At ~1 GiB live this benchmark is deliberately absent from the
// default scripts/bench.sh sweep; run it via BENCH_SCALE=1
// scripts/bench.sh or directly:
//
//	go test -run '^$' -bench ScaleWorld -benchtime 1x -timeout 60m .
func BenchmarkScaleWorld(b *testing.B) {
	const accounts = 1_000_000
	const days = 90
	totalTicks := 0
	var peakHeap, liveHeap uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg := footsteps.TestConfig()
		cfg.Days = days
		cfg.OrganicPopulation = accounts
		cfg.Workers = 8
		w := core.NewWorld(cfg)
		w.RunAll()
		deadline := w.Plat.Now().Add(time.Duration(days) * clock.Day)
		nextSample := w.Plat.Now().Add(clock.Day)
		b.StartTimer()
		for {
			at, ran := w.Sched.StepTick()
			if ran == 0 || at.After(deadline) {
				break
			}
			totalTicks++
			if at.After(nextSample) {
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > peakHeap {
					peakHeap = ms.HeapAlloc
				}
				nextSample = nextSample.Add(clock.Day)
			}
		}
		b.StopTimer()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		liveHeap = ms.HeapAlloc
		if liveHeap > peakHeap {
			peakHeap = liveHeap
		}
		// The world must survive until after the post-GC measurement, or
		// the collector is free to reap the very tables being sized.
		runtime.KeepAlive(w)
	}
	b.ReportMetric(float64(totalTicks)/float64(b.N), "ticks/op")
	if totalTicks > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(totalTicks), "ns/tick")
	}
	b.ReportMetric(float64(liveHeap)/float64(accounts), "B/account")
	b.ReportMetric(float64(peakHeap)/(1<<20), "peak-heap-MiB")
}

// BenchmarkSnapshot prices the persistence layer on the same 10-day
// world the step benchmarks use: encode measures a full FSNAP1 world
// snapshot (reporting its size, since checkpoint cadence × size is the
// disk budget), restore measures the whole resume path — reconstruct
// the world from config, fast-forward the scheduler, and overlay the
// snapshotted state. Restore is deliberately end-to-end: that is the
// wall-clock cost a crashed run pays before it emits its first resumed
// event.
func BenchmarkSnapshot(b *testing.B) {
	cfg := footsteps.TestConfig()
	cfg.Days = 10
	w := core.NewWorld(cfg)
	w.RunAll()
	if err := w.RunDays(cfg.Days); err != nil {
		b.Fatal(err)
	}

	b.Run("encode", func(b *testing.B) {
		var buf bytes.Buffer
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := w.Snapshot(&buf); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(buf.Len()), "snap-bytes")
		if secs := b.Elapsed().Seconds(); secs > 0 {
			b.ReportMetric(float64(buf.Len())*float64(b.N)/secs/1e6, "MB/sec")
		}
	})

	var snap bytes.Buffer
	if err := w.Snapshot(&snap); err != nil {
		b.Fatal(err)
	}
	b.Run("restore", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.RestoreWorld(cfg, bytes.NewReader(snap.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(snap.Len()), "snap-bytes")
	})
}

// BenchmarkTraceStep measures the cost of FTRC1 span tracing on the
// 10-day tick loop across sample rates: off (nil tracer — the shipping
// default, which must stay within the PR 5 alloc budgets), a sparse
// 1/1024 production rate, a dense 1/16 rate, and the full 1/1 firehose.
// Trace bytes go to io.Discard so the numbers isolate span assembly and
// encoding, not disk. The tracing-off row is the regression guard: a
// disabled tracer costs one nil check per request, so its ns/tick must
// match BenchmarkParallelStep within noise; the 1/1024 row bounds the
// recommended always-on overhead (target ≤5% over off).
func BenchmarkTraceStep(b *testing.B) {
	for _, sampleN := range []uint64{0, 1024, 16, 1} {
		name := "off"
		if sampleN > 0 {
			name = fmt.Sprintf("sample=1_%d", sampleN)
		}
		b.Run(name, func(b *testing.B) {
			totalTicks, totalEvents := 0, 0
			var totalSpans uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cfg := footsteps.TestConfig()
				cfg.Days = 10
				cfg.Workers = 4
				var tr *trace.Tracer
				if sampleN > 0 {
					var err error
					tr, err = trace.New(io.Discard, cfg.Seed, sampleN)
					if err != nil {
						b.Fatal(err)
					}
					cfg.Trace = tr
				}
				w := core.NewWorld(cfg)
				w.RunAll()
				deadline := w.Plat.Now().Add(time.Duration(cfg.Days) * clock.Day)
				events := 0
				w.Plat.Log().Subscribe(func(platform.Event) { events++ })
				b.StartTimer()
				for {
					at, ran := w.Sched.StepTick()
					if ran == 0 || at.After(deadline) {
						break
					}
					totalTicks++
				}
				b.StopTimer()
				if tr != nil {
					if err := tr.Close(); err != nil {
						b.Fatal(err)
					}
					totalSpans += tr.Spans()
				}
				b.StartTimer()
				totalEvents += events
			}
			b.ReportMetric(float64(totalTicks)/float64(b.N), "ticks/op")
			b.ReportMetric(float64(totalEvents)/float64(b.N), "events/op")
			b.ReportMetric(float64(totalSpans)/float64(b.N), "spans/op")
			if totalTicks > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(totalTicks), "ns/tick")
			}
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(totalEvents)/secs, "events/sec")
			}
		})
	}
}

// BenchmarkDurableStep measures what crash-tolerant durability costs on
// the same 10-day tick loop: off (the PR 7 recording path — a plain
// eventio.Writer streaming FSEV1 to a file, no crash tolerance), on
// with batched fsync (the default — frames buffer in the live segment
// and fsync only at the daily checkpoint), and on with
// fsync-every-batch (maximal durability: every cut frame is synced
// before the loop continues). All three modes take the identical daily
// FSNAP1 checkpoint — off writes it with persistence.AtomicWriteFile,
// exactly like `record -checkpoint-every 1` — so snapshot encode cost
// and its GC pressure cancel out of the comparison; the checkpoint
// itself is a once-per-day fixed cost, timed separately and reported
// as ckpt-ns (compare BenchmarkSnapshot/encode). ns/tick times the
// steady-state loop — Append, frame cuts, and the per-batch fsyncs of
// fsync-every mode — which is where the ≤15% batched-mode budget
// applies (docs/PERSISTENCE.md).
func BenchmarkDurableStep(b *testing.B) {
	modes := []struct {
		name       string
		durable    bool
		fsyncEvery bool
	}{
		{"off", false, false},
		{"batched", true, false},
		{"fsync-every", true, true},
	}
	for _, m := range modes {
		b.Run("mode="+m.name, func(b *testing.B) {
			totalTicks, totalEvents, totalCkpts := 0, 0, 0
			var ckptTime time.Duration
			var plainFile *os.File
			var plainWriter *eventio.Writer
			var plainDir string
			var snapBuf bytes.Buffer
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cfg := footsteps.TestConfig()
				cfg.Days = 10
				cfg.Workers = 4
				w := core.NewWorld(cfg)
				events := 0
				w.Plat.Log().Subscribe(func(platform.Event) { events++ })
				var dlog *durable.Log
				if m.durable {
					var err error
					dlog, err = durable.Create(durable.OSFS{}, b.TempDir()+"/log", durable.Options{
						Seed: cfg.Seed, Fingerprint: cfg.Fingerprint(), FsyncEveryBatch: m.fsyncEvery,
					})
					if err != nil {
						b.Fatal(err)
					}
					w.Plat.Log().Subscribe(func(ev platform.Event) { _ = dlog.Append(ev) })
				} else {
					plainDir = b.TempDir()
					f, err := os.Create(plainDir + "/capture.fsev")
					if err != nil {
						b.Fatal(err)
					}
					wr, err := eventio.NewWriter(f)
					if err != nil {
						b.Fatal(err)
					}
					wr.Attach(w.Plat.Log())
					plainFile, plainWriter = f, wr
				}
				w.RunAll()
				start := w.Plat.Now()
				deadline := start.Add(time.Duration(cfg.Days) * clock.Day)
				nextDay := start.Add(clock.Day)
				day := 0
				b.StartTimer()
				for {
					at, ran := w.Sched.StepTick()
					if ran == 0 || at.After(deadline) {
						break
					}
					totalTicks++
					if !at.Before(nextDay) {
						day++
						b.StopTimer()
						ckptStart := time.Now()
						if dlog != nil {
							if err := dlog.Checkpoint(day, w.Snapshot); err != nil {
								b.Fatal(err)
							}
						} else {
							snapBuf.Reset()
							if err := w.Snapshot(&snapBuf); err != nil {
								b.Fatal(err)
							}
							if err := persistence.AtomicWriteFile(
								fmt.Sprintf("%s/ckpt-day-%03d.fsnap", plainDir, day), snapBuf.Bytes()); err != nil {
								b.Fatal(err)
							}
						}
						ckptTime += time.Since(ckptStart)
						totalCkpts++
						nextDay = nextDay.Add(clock.Day)
						b.StartTimer()
					}
				}
				b.StopTimer()
				if dlog != nil {
					if err := dlog.Close(); err != nil {
						b.Fatal(err)
					}
				}
				if plainWriter != nil {
					if err := plainWriter.Flush(); err != nil {
						b.Fatal(err)
					}
					plainFile.Close()
					plainWriter, plainFile = nil, nil
				}
				totalEvents += events
				b.StartTimer()
			}
			b.ReportMetric(float64(totalTicks)/float64(b.N), "ticks/op")
			b.ReportMetric(float64(totalEvents)/float64(b.N), "events/op")
			if totalTicks > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(totalTicks), "ns/tick")
			}
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(totalEvents)/secs, "events/sec")
			}
			if totalCkpts > 0 {
				b.ReportMetric(float64(ckptTime.Nanoseconds())/float64(totalCkpts), "ckpt-ns")
			}
		})
	}
}
