package core

import (
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
		got.Scale != want.Scale || got.Workers != want.Workers {
		t.Fatalf("New() = %+v, want DefaultConfig %+v", got, want)
	}
	if got, want := NewTest(), TestConfig(); got.Days != want.Days || got.OrganicPopulation != want.OrganicPopulation {
		t.Fatalf("NewTest() = %+v, want TestConfig %+v", got, want)
	}

	reg := telemetry.NewRegistry()
	cfg := New(
		WithSeed(7),
		WithWorkers(8),
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
	if cfg.Seed != 7 || cfg.Workers != 8 || cfg.Days != 12 ||
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
// built from an options-constructed config honors the worker knob end
// to end, and the zero value still builds a (sequential) pool.
func TestOptionConfigBuildsWorld(t *testing.T) {
	t.Parallel()
	cfg := NewTest(WithDays(2), WithWorkers(2),
		WithOrganicPopulation(50), WithPoolSize(40), WithVPNUsers(4))
	w := NewWorld(cfg)
	if got := w.Steps.Workers(); got != 2 {
		t.Errorf("step pool workers = %d, want 2", got)
	}
	w0 := NewWorld(NewTest(WithDays(2), WithOrganicPopulation(50), WithPoolSize(40), WithVPNUsers(4)))
	if w0.Steps == nil || w0.Steps.Workers() != 1 {
		t.Errorf("default step pool = %+v, want a 1-worker pool", w0.Steps)
	}
}
