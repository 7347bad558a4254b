package revenue

import (
	"math"
	"testing"

	"footsteps/internal/aas"
	"footsteps/internal/detection"
	"footsteps/internal/platform"
)

// mkService builds a synthetic ServiceActivity.
func mkService() *detection.ServiceActivity {
	return &detection.ServiceActivity{
		Label:     "Test",
		ByAccount: make(map[platform.AccountID]*detection.AccountActivity),
		Actions:   make(map[platform.ActionType]int),
		Targets:   make(map[platform.AccountID]bool),
	}
}

// addActor inserts an account active on the given days with n outbound
// follows per active day.
func addActor(svc *detection.ServiceActivity, id platform.AccountID, days []int, perDay int) *detection.AccountActivity {
	a := &detection.AccountActivity{Account: id}
	for _, d := range days {
		a.AddOutbound(d, platform.ActionFollow, perDay)
	}
	svc.ByAccount[id] = a
	return a
}

func seq(from, to int) []int {
	var out []int
	for d := from; d <= to; d++ {
		out = append(out, d)
	}
	return out
}

func TestLongTermSplit(t *testing.T) {
	t.Parallel()
	svc := mkService()
	addActor(svc, 1, seq(0, 20), 10)          // run 21 → long-term
	addActor(svc, 2, []int{0, 1, 2}, 10)      // run 3 → short
	addActor(svc, 3, []int{0, 2, 4, 6, 8}, 1) // run 1 → short (non-consecutive)

	s := LongTermSplit(svc, 7, false)
	if s.Customers != 3 || s.LongTerm != 1 || s.ShortTerm != 2 {
		t.Fatalf("split %+v", s)
	}
	// Long-term actions: 210 of 245 total.
	want := 210.0 / 245.0
	if math.Abs(s.LongActions-want) > 1e-9 {
		t.Fatalf("long actions %v, want %v", s.LongActions, want)
	}
}

func TestLongTermSplitHublaagramDefinition(t *testing.T) {
	t.Parallel()
	svc := mkService()
	addActor(svc, 1, seq(0, 4), 1) // run 5 > 4 → long under collusion rule
	s := LongTermSplit(svc, 4, true)
	if s.LongTerm != 1 {
		t.Fatalf("run of 5 days should be long-term under >4 rule: %+v", s)
	}
	if s2 := LongTermSplit(svc, 7, false); s2.LongTerm != 0 {
		t.Fatalf("run of 5 days should be short under >7 rule: %+v", s2)
	}
}

func TestEstimateReciprocityBoostgramShape(t *testing.T) {
	t.Parallel()
	// Boostgram: 3-day trial, $99/30 days.
	pricing := aas.ReciprocityPricing{TrialDays: 3, MinPaidDays: 30, CostPerPeriod: 99}
	svc := mkService()
	// Account 1: active days 0..32 → trial 0-2, paid days 3..29 within
	// window [0,30) = 27 paid days → 1 period → $99.
	addActor(svc, 1, seq(0, 32), 5)
	// Account 2: trial only (days 0..2) → never paid.
	addActor(svc, 2, seq(0, 2), 5)

	est := EstimateReciprocity(svc, pricing, 0, 30)
	if est.PaidAccounts != 1 {
		t.Fatalf("paid accounts %d", est.PaidAccounts)
	}
	if est.PaidDays != 27 {
		t.Fatalf("paid days %d", est.PaidDays)
	}
	if math.Abs(est.Monthly-99) > 1e-9 {
		t.Fatalf("monthly %v, want 99", est.Monthly)
	}
}

func TestEstimateReciprocityPerDayBilling(t *testing.T) {
	t.Parallel()
	// Instazood-style: 7-day delivered trial, $0.34/day.
	pricing := aas.ReciprocityPricing{TrialDays: 3, DeliveredTrialDays: 7, MinPaidDays: 1, CostPerPeriod: 0.34}
	svc := mkService()
	addActor(svc, 1, seq(0, 29), 5) // 30 active days, 7 trial → 23 paid
	est := EstimateReciprocity(svc, pricing, 0, 30)
	if est.PaidDays != 23 {
		t.Fatalf("paid days %d", est.PaidDays)
	}
	if math.Abs(est.Monthly-23*0.34) > 1e-9 {
		t.Fatalf("monthly %v", est.Monthly)
	}
}

func TestEstimateReciprocityWindowNormalization(t *testing.T) {
	t.Parallel()
	pricing := aas.ReciprocityPricing{TrialDays: 0, MinPaidDays: 1, CostPerPeriod: 1}
	svc := mkService()
	addActor(svc, 1, seq(0, 89), 1) // 90 paid days over 90-day window
	est := EstimateReciprocity(svc, pricing, 0, 90)
	// 90 days × $1 × (30/90) = $30/month.
	if math.Abs(est.Monthly-30) > 1e-9 {
		t.Fatalf("monthly %v, want 30", est.Monthly)
	}
	if empty := EstimateReciprocity(svc, pricing, 10, 10); empty.PaidAccounts != 0 {
		t.Fatal("empty window produced accounts")
	}
}

func hublaPricing() aas.CollusionPricing {
	return aas.SpecByName(aas.NameHublaagram).Collusion
}

func TestEstimateCollusionNoOutbound(t *testing.T) {
	t.Parallel()
	svc := mkService()
	a := addActor(svc, 1, nil, 0) // no outbound at all
	a.AddInbound(3, platform.ActionLike, 300)
	a.AddPostLikes(1, 300)

	est := EstimateCollusion(svc, hublaPricing(), 30)
	if est.NoOutboundAccounts != 1 {
		t.Fatalf("no-outbound accounts %d", est.NoOutboundAccounts)
	}
	if est.NoOutboundRevenue != 15 {
		t.Fatalf("no-outbound revenue %v", est.NoOutboundRevenue)
	}
}

func TestEstimateCollusionTiers(t *testing.T) {
	t.Parallel()
	svc := mkService()
	// Tier-1 customer (250–500): median likes/photo 375, paid-speed burst.
	a := addActor(svc, 1, nil, 0)
	a.AddOutbound(0, platform.ActionLike, 10) // also a source
	a.AddPostLikes(1, 350)
	a.AddPostLikes(2, 375)
	a.AddPostLikes(3, 400)
	a.PeakHourlyLike = 350
	a.AddInbound(0, platform.ActionLike, 1125)

	// Tier-2 customer (500–1,000): median 700.
	b := addActor(svc, 2, nil, 0)
	b.AddOutbound(0, platform.ActionLike, 5)
	b.AddPostLikes(4, 650)
	b.AddPostLikes(5, 750)
	b.PeakHourlyLike = 650
	b.AddInbound(0, platform.ActionLike, 1400)

	// Top-tier customer above the last tier's max: still binned last.
	c := addActor(svc, 3, nil, 0)
	c.AddOutbound(0, platform.ActionLike, 5)
	c.AddPostLikes(6, 5000)
	c.PeakHourlyLike = 900
	c.AddInbound(0, platform.ActionLike, 5000)

	est := EstimateCollusion(svc, hublaPricing(), 30)
	if est.TierAccounts[0] != 1 || est.TierRevenue[0] != 20 {
		t.Fatalf("tier0 %+v %v", est.TierAccounts, est.TierRevenue)
	}
	if est.TierAccounts[1] != 1 || est.TierRevenue[1] != 30 {
		t.Fatalf("tier1 %+v", est.TierAccounts)
	}
	if est.TierAccounts[3] != 1 || est.TierRevenue[3] != 70 {
		t.Fatalf("top tier %+v", est.TierAccounts)
	}
}

func TestEstimateCollusionOneTime(t *testing.T) {
	t.Parallel()
	svc := mkService()
	// One-time buyer: one photo with 2,300 likes, median across photos
	// below the lowest tier (other photos have organic-scale likes).
	a := addActor(svc, 1, nil, 0)
	a.AddOutbound(0, platform.ActionLike, 3)
	a.AddPostLikes(1, 2300)
	a.AddPostLikes(2, 20)
	a.AddPostLikes(3, 15)
	a.PeakHourlyLike = 1500
	a.AddInbound(0, platform.ActionLike, 2335)

	est := EstimateCollusion(svc, hublaPricing(), 30)
	if est.OneTimeBuyers != 1 {
		t.Fatalf("one-time buyers %d", est.OneTimeBuyers)
	}
	if est.OneTimeRevenue != 10 {
		t.Fatalf("one-time revenue %v", est.OneTimeRevenue)
	}
	if est.TierAccounts[0] != 0 {
		t.Fatal("one-time buyer also binned into a tier")
	}
}

func TestEstimateCollusionAds(t *testing.T) {
	t.Parallel()
	svc := mkService()
	// Free customer receiving exactly 5 free like requests (400 likes)
	// and 2 follow requests (80 follows) over 30 days.
	a := addActor(svc, 1, nil, 0)
	a.AddOutbound(0, platform.ActionLike, 2)
	a.PeakHourlyLike = 80
	a.AddInbound(0, platform.ActionLike, 400)
	a.AddInbound(0, platform.ActionFollow, 80)
	a.AddPostLikes(1, 400)

	est := EstimateCollusion(svc, hublaPricing(), 30)
	if est.AdImpressions != 7 {
		t.Fatalf("ad impressions %d, want 7", est.AdImpressions)
	}
	if math.Abs(est.AdRevenueLow-7.0/1000*AdCPMLow) > 1e-9 {
		t.Fatalf("ad low %v", est.AdRevenueLow)
	}
	if est.AdRevenueHigh <= est.AdRevenueLow {
		t.Fatal("CPM range inverted")
	}
	if est.MonthlyHigh < est.MonthlyLow {
		t.Fatal("totals inverted")
	}
}

func TestSplitNewVsPreexisting(t *testing.T) {
	t.Parallel()
	pricing := aas.ReciprocityPricing{TrialDays: 0, MinPaidDays: 1, CostPerPeriod: 1}
	svc := mkService()
	// Preexisting payer: active days 0..59 (paid both months).
	addActor(svc, 1, seq(0, 59), 1)
	// New payer in month 2: active 30..59 only.
	addActor(svc, 2, seq(30, 59), 1)
	// Customer who quit before month 2 contributes nothing.
	addActor(svc, 3, seq(0, 10), 1)

	s := SplitNewVsPreexisting(svc, pricing, 30)
	if math.Abs(s.NewFraction-0.5) > 1e-9 || math.Abs(s.PreexistingFraction-0.5) > 1e-9 {
		t.Fatalf("split %+v", s)
	}
	if empty := SplitNewVsPreexisting(mkService(), pricing, 30); empty.NewFraction != 0 || empty.PreexistingFraction != 0 {
		t.Fatal("empty split nonzero")
	}
}

func TestSplitCollusionNewVsPreexisting(t *testing.T) {
	t.Parallel()
	pricing := hublaPricing()
	svc := mkService()
	// Preexisting paid customer: bursts in both months.
	a := addActor(svc, 1, nil, 0)
	a.PeakHourlyLike = 500
	a.AddInbound(5, platform.ActionLike, 1000)
	a.AddInbound(35, platform.ActionLike, 1000)
	// New paid customer: burst only in month 2.
	b := addActor(svc, 2, nil, 0)
	b.PeakHourlyLike = 400
	b.AddInbound(40, platform.ActionLike, 3000)
	// Free rider: ignored.
	c := addActor(svc, 3, nil, 0)
	c.PeakHourlyLike = 80
	c.AddInbound(40, platform.ActionLike, 80)

	s := SplitCollusionNewVsPreexisting(svc, pricing, 30)
	if math.Abs(s.NewFraction-0.75) > 1e-9 {
		t.Fatalf("new fraction %v, want 0.75", s.NewFraction)
	}
}

// TestEstimateReciprocityOrderIndependent: the paid-period total must
// not depend on the order the ByAccount map is walked in. Periods of
// 1, 1 and 5 at $3.15 sum to 22.05 or to 22.049999999999997 depending
// on which account a float accumulator meets first, which is how Table
// 8 rounded either way between runs of one seed. Whole periods are
// summed as integers and priced once, so every walk gives 7 × $3.15.
func TestEstimateReciprocityOrderIndependent(t *testing.T) {
	t.Parallel()
	cost := 3.15 // a variable, so the sums below round as float64
	if (cost+cost)+5*cost == (5*cost+cost)+cost {
		t.Fatal("fixture no longer rounds differently by summation order")
	}
	pricing := aas.ReciprocityPricing{TrialDays: 0, MinPaidDays: 7, CostPerPeriod: cost}
	svc := mkService()
	addActor(svc, 1, seq(0, 6), 1)  // 7 paid days → 1 period
	addActor(svc, 2, seq(0, 6), 1)  // 1 period
	addActor(svc, 3, seq(0, 34), 1) // 35 paid days → 5 periods
	want := 7 * cost
	for i := 0; i < 200; i++ { // map order is randomized per walk
		if got := EstimateReciprocity(svc, pricing, 0, 30); got.Monthly != want {
			t.Fatalf("walk %d: Monthly = %v, want %v", i, got.Monthly, want)
		}
	}
}
