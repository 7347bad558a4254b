package core

import (
	"fmt"
	"sort"
	"strings"

	"footsteps/internal/aas"
	"footsteps/internal/honeypot"
	"footsteps/internal/platform"
)

// Finding is one calibration check against the paper's published results.
type Finding struct {
	Name   string
	OK     bool
	Detail string
}

// FormatFindings renders a check report; the bool reports overall pass.
func FormatFindings(fs []Finding) (string, bool) {
	var b strings.Builder
	allOK := true
	for _, f := range fs {
		mark := "PASS"
		if !f.OK {
			mark = "FAIL"
			allOK = false
		}
		fmt.Fprintf(&b, "  [%s] %-46s %s\n", mark, f.Name, f.Detail)
	}
	return b.String(), allOK
}

func within(v, lo, hi float64) bool { return v >= lo && v <= hi }

// CheckTable5 verifies a measured reciprocation table against the paper's
// Table 5, cell by cell, with bands wide enough for sampling noise at
// honeypot counts but tight enough to catch calibration drift.
func CheckTable5(t *Table5) []Finding {
	type band struct {
		svc   string
		kind  honeypot.Kind
		drive platform.ActionType
		// follow-channel band (the headline rate per drive type).
		lo, hi float64
	}
	bands := []band{
		// follow→follow, empty: paper 10.3–13.0%.
		{aas.NameBoostgram, honeypot.Empty, platform.ActionFollow, 0.06, 0.16},
		{aas.NameInstalex, honeypot.Empty, platform.ActionFollow, 0.08, 0.19},
		{aas.NameInstazood, honeypot.Empty, platform.ActionFollow, 0.08, 0.19},
		// follow→follow, lived-in: paper 12.0–16.1%.
		{aas.NameBoostgram, honeypot.LivedIn, platform.ActionFollow, 0.07, 0.20},
		{aas.NameInstalex, honeypot.LivedIn, platform.ActionFollow, 0.08, 0.24},
		{aas.NameInstazood, honeypot.LivedIn, platform.ActionFollow, 0.08, 0.24},
	}
	var out []Finding
	for _, bd := range bands {
		c, ok := t.Cell(bd.svc, bd.kind, bd.drive)
		name := fmt.Sprintf("T5 %s(%v) %v→follow", bd.svc, bd.kind, bd.drive)
		if !ok || c.Outbound == 0 {
			out = append(out, Finding{Name: name, OK: false, Detail: "cell missing"})
			continue
		}
		out = append(out, Finding{
			Name: name, OK: within(c.InFollowRate, bd.lo, bd.hi),
			Detail: fmt.Sprintf("%.3f (band %.2f–%.2f)", c.InFollowRate, bd.lo, bd.hi),
		})
	}
	// Invariant: follows never reciprocated with likes (all cells).
	worst := 0.0
	for _, c := range t.Cells {
		if c.DriveType == platform.ActionFollow && c.InLikeRate > worst {
			worst = c.InLikeRate
		}
	}
	out = append(out, Finding{
		Name: "T5 follow→like is zero", OK: worst <= 0.001,
		Detail: fmt.Sprintf("max %.4f", worst),
	})
	// Lived-in boost on the like channel, averaged over services.
	var e, l, n float64
	for _, svc := range []string{aas.NameBoostgram, aas.NameInstalex, aas.NameInstazood} {
		ce, okE := t.Cell(svc, honeypot.Empty, platform.ActionLike)
		cl, okL := t.Cell(svc, honeypot.LivedIn, platform.ActionLike)
		if okE && okL && ce.InLikeRate > 0 {
			e += ce.InLikeRate
			l += cl.InLikeRate
			n++
		}
	}
	if n > 0 {
		ratio := l / e
		out = append(out, Finding{
			Name: "T5 lived-in like boost", OK: within(ratio, 1.2, 3.2),
			Detail: fmt.Sprintf("%.2f× (paper 1.6–2.6×)", ratio),
		})
	}
	// The Instalex like→follow anomaly.
	ix, okIx := t.Cell(aas.NameInstalex, honeypot.Empty, platform.ActionLike)
	iz, okIz := t.Cell(aas.NameInstazood, honeypot.Empty, platform.ActionLike)
	if okIx && okIz {
		out = append(out, Finding{
			Name: "T5 Instalex like→follow anomaly",
			OK:   ix.InFollowRate > 3*iz.InFollowRate,
			Detail: fmt.Sprintf("Instalex %.4f vs Instazood %.4f",
				ix.InFollowRate, iz.InFollowRate),
		})
	}
	return out
}

// CheckBusiness verifies the §5 shape claims.
func CheckBusiness(r *BusinessResults) []Finding {
	var out []Finding
	add := func(name string, ok bool, detail string) {
		out = append(out, Finding{Name: name, OK: ok, Detail: detail})
	}

	// Table 6 shapes.
	hub, okHub := r.Table6[aas.NameHublaagram]
	bg, okBg := r.Table6[aas.NameBoostgram]
	insta, okInsta := r.Table6[LabelInstaStar]
	if !okHub || !okBg || !okInsta {
		add("T6 all services present", false, "missing label")
		return out
	}
	add("T6 popularity ordering", hub.Customers > insta.Customers && insta.Customers > bg.Customers,
		fmt.Sprintf("H=%d I=%d B=%d", hub.Customers, insta.Customers, bg.Customers))
	frac := func(lt, total int) float64 {
		if total == 0 {
			return 0
		}
		return float64(lt) / float64(total)
	}
	add("T6 Hublaagram long-term ≈ half", within(frac(hub.LongTerm, hub.Customers), 0.35, 0.75),
		fmt.Sprintf("%.2f (paper 0.50)", frac(hub.LongTerm, hub.Customers)))
	add("T6 reciprocity long-term ≈ third", within(frac(insta.LongTerm, insta.Customers), 0.15, 0.55),
		fmt.Sprintf("%.2f (paper 0.34)", frac(insta.LongTerm, insta.Customers)))
	add("T6 long-term action share ≳ 0.85", hub.LongActions > 0.8 && insta.LongActions > 0.8,
		fmt.Sprintf("H=%.2f I=%.2f (paper ≈0.92)", hub.LongActions, insta.LongActions))

	// Table 8/9: the collusion network out-earns each reciprocity AAS.
	recipBest := r.Table8Boostgram.Monthly
	if r.Table8InstaHigh.Monthly > recipBest {
		recipBest = r.Table8InstaHigh.Monthly
	}
	add("T8/T9 Hublaagram revenue dominance", r.Table9.MonthlyLow > recipBest,
		fmt.Sprintf("Hubla $%.0f vs best reciprocity $%.0f", r.Table9.MonthlyLow, recipBest))
	add("T9 tiers dwarf ads", tierTotal(r) > 10*r.Table9.AdRevenueHigh,
		fmt.Sprintf("tiers $%.0f vs ads ≤ $%.0f", tierTotal(r), r.Table9.AdRevenueHigh))

	// Table 10: repeat customers dominate everywhere. Labels are walked
	// in sorted order so the printed check list is stable run to run.
	labels := make([]string, 0, len(r.Table10))
	for label := range r.Table10 {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	for _, label := range labels {
		s := r.Table10[label]
		add("T10 "+label+" preexisting majority", s.PreexistingFraction > 0.5,
			fmt.Sprintf("%.2f", s.PreexistingFraction))
	}

	// Table 11 orderings.
	add("T11 Boostgram like-heavy",
		r.Table11[aas.NameBoostgram][platform.ActionLike] > r.Table11[aas.NameBoostgram][platform.ActionFollow],
		fmt.Sprintf("likes %.2f follows %.2f", r.Table11[aas.NameBoostgram][platform.ActionLike],
			r.Table11[aas.NameBoostgram][platform.ActionFollow]))
	add("T11 Insta* follow-heavy",
		r.Table11[LabelInstaStar][platform.ActionFollow] > r.Table11[LabelInstaStar][platform.ActionLike],
		fmt.Sprintf("follows %.2f likes %.2f", r.Table11[LabelInstaStar][platform.ActionFollow],
			r.Table11[LabelInstaStar][platform.ActionLike]))

	// Figures 3/4 targeting bias.
	for _, label := range []string{LabelInstaStar, aas.NameBoostgram} {
		if r.Figure3[label] == nil || r.Figure3["Random"] == nil {
			add("F3/F4 "+label+" samples", false, "missing CDF")
			continue
		}
		add("F3 "+label+" targets follow more",
			r.Figure3[label].Median() > r.Figure3["Random"].Median(),
			fmt.Sprintf("%.0f vs %.0f", r.Figure3[label].Median(), r.Figure3["Random"].Median()))
		add("F4 "+label+" targets followed less",
			r.Figure4[label].Median() < r.Figure4["Random"].Median(),
			fmt.Sprintf("%.0f vs %.0f", r.Figure4[label].Median(), r.Figure4["Random"].Median()))
	}

	// Drift and overlap sanity.
	add("§5 signal drift clean", r.DriftFailures == 0,
		fmt.Sprintf("%d/%d failed", r.DriftFailures, r.DriftChecks))
	total := hub.Customers + insta.Customers + bg.Customers
	add("§5.1 overlap small", total == 0 || float64(r.Overlap.RecipAndCollusion)/float64(total) < 0.05,
		fmt.Sprintf("%d of %d customers", r.Overlap.RecipAndCollusion, total))
	return out
}

func tierTotal(r *BusinessResults) float64 {
	var t float64
	for _, v := range r.Table9.TierRevenue {
		t += v
	}
	return t
}
