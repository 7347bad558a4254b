// Package study runs the `study` workload, the §5 90-day business
// characterization, through the root footsteps API only (NewStudy,
// Business, FormatBusiness, CheckBusiness, and Study.World for one
// event observer). That API already existed in older commits, so the
// drift tool can build this package against them unchanged.
package study

import (
	"crypto/sha256"
	"fmt"
	"time"

	"footsteps"
	"footsteps/internal/platform"
)

// Run is one timed business study.
type Run struct {
	Setup     time.Duration   // NewStudy
	Wall      time.Duration   // Business()
	Days      []time.Duration // wall time of each completed simulated day
	SimDays   int             // simulated days the study advanced
	Events    uint64          // platform events emitted
	ReportSHA [32]byte        // sha256 of FormatBusiness
	Check     string          // FormatFindings text
	CheckOK   bool            // every CheckBusiness finding passed
}

// Setup builds a study world for seed and times it.
func Setup(seed uint64, opts ...footsteps.Option) (*footsteps.Study, time.Duration) {
	cfg := footsteps.New(append([]footsteps.Option{footsteps.WithSeed(seed)}, opts...)...)
	t0 := time.Now()
	st := footsteps.NewStudy(cfg)
	return st, time.Since(t0)
}

// Business runs the study on st, timing it, and observes the event
// stream to count events and cut per-day wall times. The observer only
// reads events, so the report is the one an unobserved run produces.
func Business(st *footsteps.Study) (*Run, *footsteps.BusinessResults, error) {
	r := &Run{}
	const day = int64(24 * time.Hour)
	curDay, firstDay := int64(-1), int64(-1)
	var dayStart time.Time
	st.World().Plat.Log().Subscribe(func(ev platform.Event) {
		r.Events++
		d := ev.Time.UnixNano() / day
		if d == curDay {
			return
		}
		now := time.Now()
		if curDay >= 0 {
			r.Days = append(r.Days, now.Sub(dayStart))
		} else {
			firstDay = d
		}
		curDay, dayStart = d, now
	})
	t0 := time.Now()
	res, err := st.Business()
	r.Wall = time.Since(t0)
	if err != nil {
		return r, nil, fmt.Errorf("business study: %w", err)
	}
	r.SimDays = int(curDay - firstDay + 1)
	r.ReportSHA = sha256.Sum256([]byte(footsteps.FormatBusiness(res)))
	r.Check, r.CheckOK = footsteps.FormatFindings(footsteps.CheckBusiness(res))
	return r, res, nil
}
