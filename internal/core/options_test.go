package core

import (
	"math"
	"strings"
	"testing"

	"footsteps/internal/faults"
	"footsteps/internal/telemetry"
)

// TestOptionsComposeOverDefaults checks the functional constructors are
// exactly "base config + mutations": an empty option list reproduces
// the base structs, and options apply left to right.
func TestOptionsComposeOverDefaults(t *testing.T) {
	t.Parallel()
	if got, want := New(), DefaultConfig(); got.Seed != want.Seed || got.Days != want.Days ||
		got.Scale != want.Scale || got.OrganicPopulation != want.OrganicPopulation {
		t.Fatalf("New() = %+v, want DefaultConfig %+v", got, want)
	}
	if got, want := NewTest(), TestConfig(); got.Days != want.Days || got.OrganicPopulation != want.OrganicPopulation {
		t.Fatalf("NewTest() = %+v, want TestConfig %+v", got, want)
	}

	reg := telemetry.NewRegistry()
	cfg := New(
		WithSeed(7),
		WithDays(12),
		WithScale(0.25),
		WithGraphWrites(true),
		WithOrganicPopulation(123),
		WithPoolSize(45),
		WithVPNUsers(6),
		WithIPDailyBudget(789),
		WithTelemetry(reg),
		WithFaults("storm"),
	)
	if cfg.Seed != 7 || cfg.Days != 12 ||
		cfg.Scale != 0.25 || !cfg.GraphWrites || cfg.OrganicPopulation != 123 ||
		cfg.PoolSize != 45 || cfg.VPNUsers != 6 || cfg.IPDailyBudget != 789 ||
		cfg.Telemetry != reg {
		t.Fatalf("options did not apply: %+v", cfg)
	}
	if cfg.Faults == nil || cfg.Faults.Name != "storm" {
		t.Fatalf("WithFaults: got %+v", cfg.Faults)
	}

	// Later options win.
	if got := New(WithSeed(1), WithSeed(2)).Seed; got != 2 {
		t.Fatalf("left-to-right application broken: seed %d, want 2", got)
	}
	// WithFaultProfile accepts a prebuilt profile (and nil disables).
	p := faults.MustScenario("blip")
	if got := New(WithFaultProfile(p)).Faults; got != p {
		t.Fatal("WithFaultProfile did not attach the profile")
	}
	if got := New(WithFaults("mixed"), WithFaultProfile(nil)).Faults; got != nil {
		t.Fatal("WithFaultProfile(nil) did not clear the profile")
	}
}

// TestOptionConfigBuildsWorld is the integration smoke test: a world
// built from an options-constructed config honors its knobs end to end —
// the population it sizes, and a step pool whose guard is installed and
// whose tick tracer reports into the registry WithTelemetry attached.
func TestOptionConfigBuildsWorld(t *testing.T) {
	t.Parallel()
	reg := telemetry.NewRegistry()
	cfg := NewTest(WithDays(2), WithTelemetry(reg),
		WithOrganicPopulation(50), WithPoolSize(40), WithVPNUsers(4))
	w := NewWorld(cfg)
	if w.Steps == nil || w.Steps.Guard() == nil {
		t.Fatalf("step pool = %+v, want a pool with a guard", w.Steps)
	}
	if got := w.Pop.Size(); got < cfg.OrganicPopulation {
		t.Errorf("population has %d members, configured %d organic", got, cfg.OrganicPopulation)
	}
	w.RunAll()
	if err := w.RunDays(cfg.Days); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap.Counters["step.sections"] == 0 || snap.Counters["step.intents"] == 0 {
		t.Errorf("tick tracer silent: sections %d, intents %d",
			snap.Counters["step.sections"], snap.Counters["step.intents"])
	}
}

// TestConfigValidate: each field rule rejects its bad values with an
// error naming the field, and NewWorld panics with the same error
// instead of hanging or running a meaningless study.
func TestConfigValidate(t *testing.T) {
	t.Parallel()
	if err := TestConfig().Validate(); err != nil {
		t.Fatalf("TestConfig invalid: %v", err)
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("DefaultConfig invalid: %v", err)
	}
	cases := []struct {
		name string
		opt  Option
		want string
	}{
		{"days=0", WithDays(0), "days"},
		{"days=-1", WithDays(-1), "days"},
		{"population=0", WithOrganicPopulation(0), "organic population"},
		{"pool=0", WithPoolSize(0), "pool size"},
		{"scale=0", WithScale(0), "scale"},
		{"scale=-1", WithScale(-1), "scale"},
		{"scale=NaN", WithScale(math.NaN()), "scale"},
		{"scale=+Inf", WithScale(math.Inf(1)), "scale"},
		{"vpn=-1", WithVPNUsers(-1), "VPN users"},
		{"ipbudget=-1", WithIPDailyBudget(-1), "IP daily budget"},
		{"checkpoint=-1", WithCheckpointEvery(-1), "checkpoint interval"},
		{"override=0", func(c *Config) { c.ScaleOverride = map[string]float64{"Boostgram": 0} }, `scale override "Boostgram"`},
		{"override=NaN", func(c *Config) { c.ScaleOverride = map[string]float64{"a": 1, "b": math.NaN()} }, `scale override "b"`},
		{"override=-Inf", func(c *Config) { c.ScaleOverride = map[string]float64{"a": math.Inf(-1)} }, `scale override "a"`},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := NewTest(tc.opt)
			err := cfg.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want an error naming %q", err, tc.want)
			}
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, err.Error()) {
					t.Errorf("NewWorld panic %q, want it to carry %q", msg, err)
				}
			}()
			NewWorld(cfg)
		})
	}
	// Zero is a valid value for the non-negative fields.
	if err := NewTest(WithVPNUsers(0), WithIPDailyBudget(0), WithCheckpointEvery(0)).Validate(); err != nil {
		t.Errorf("zero VPN users, IP budget and checkpoint interval rejected: %v", err)
	}
}
