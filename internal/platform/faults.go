package platform

import (
	"time"

	"footsteps/internal/netsim"
)

// FaultDecision is the verdict a fault injector hands back for one
// request. The zero value means "no fault".
type FaultDecision struct {
	// Unavailable fails the request with ErrUnavailable before it
	// reaches rate limiting, so a faulted request never consumes
	// budget and a client retry cannot double-count.
	Unavailable bool
	// RevokeSession bumps the account's session epoch (a session-store
	// flap), invalidating every live session for the account.
	RevokeSession bool
	// Latency is added simulated service latency. Under the
	// discrete-event clock it is observational: recorded by the
	// injector's telemetry, not a real delay.
	Latency time.Duration
	// LimitScale, when in (0, 1), multiplies the hourly rate limit for
	// this request (a rate-limit storm). 0 means no storm.
	LimitScale float64
}

// FaultInjector is consulted on every platform request (session
// actions and logins). Implementations MUST be pure functions of their
// arguments plus construction-time state: the platform calls Decide
// from the serial apply path, and run determinism
// across worker counts rests on the verdict for a request being
// independent of call order. internal/faults provides the
// implementation; the interface lives here so the dependency points
// from faults to platform.
type FaultInjector interface {
	Decide(now time.Time, actor AccountID, action ActionType, asn netsim.ASN, salt uint64) FaultDecision
}

// SetFaultInjector installs the fault injector. Call during world
// construction, before traffic; nil (the default) disables injection
// and costs one nil check per request.
func (p *Platform) SetFaultInjector(fi FaultInjector) {
	p.guard.Check("platform.SetFaultInjector")
	p.faults = fi
}
