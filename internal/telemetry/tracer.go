package telemetry

import "time"

// TickTracer instruments the stepping engine's intent/apply pipeline:
// how many sections ran, how wall-clock time splits between the
// per-shard plan phase and the serial apply phase, and how many intents
// each carried. Durations are wall-clock (they exist to show where tick
// time goes) and feed no simulation decision, so tracing cannot perturb
// the event stream. All methods no-op on a nil receiver, which is the
// telemetry-off state.
type TickTracer struct {
	sections   *Counter
	shards     *Counter
	intents    *Counter
	planNanos  *Histogram
	applyNanos *Histogram
	planItems  *Histogram
}

// NewTickTracer wires a tracer into reg; a nil registry yields a nil
// (disabled) tracer.
func NewTickTracer(reg *Registry) *TickTracer {
	if reg == nil {
		return nil
	}
	return &TickTracer{
		sections:   reg.Counter("step.sections"),
		shards:     reg.Counter("step.shards"),
		intents:    reg.Counter("step.intents"),
		planNanos:  reg.Histogram("step.plan.shard.ns", DurationBuckets),
		applyNanos: reg.Histogram("step.apply.ns", DurationBuckets),
		planItems:  reg.Histogram("step.plan.shard.intents", CountBuckets),
	}
}

// Enabled reports whether the tracer records anything. Callers use it to
// skip time.Now() calls entirely when tracing is off.
func (t *TickTracer) Enabled() bool { return t != nil }

// SectionStart records the start of one RunInto section.
func (t *TickTracer) SectionStart() {
	if t == nil {
		return
	}
	t.sections.Inc()
}

// ShardPlanned records one shard's generation phase: its wall duration
// and the intents it emitted.
func (t *TickTracer) ShardPlanned(d time.Duration, intents int) {
	if t == nil {
		return
	}
	t.shards.Inc()
	t.planNanos.Observe(int64(d))
	t.planItems.Observe(int64(intents))
}

// Applied records the serial merge/apply phase of one section.
func (t *TickTracer) Applied(d time.Duration, intents int) {
	if t == nil {
		return
	}
	t.applyNanos.Observe(int64(d))
	t.intents.Add(int64(intents))
}
