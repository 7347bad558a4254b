package main

import (
	"flag"
	"io"
	"testing"

	"footsteps"
)

// parseCfg parses args on a fresh flag set carrying the Config flags and
// returns the assembled Config.
func parseCfg(t *testing.T, args ...string) footsteps.Config {
	t.Helper()
	fs := flag.NewFlagSet("footsteps", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	cf := defineCfgFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %q: %v", args, err)
	}
	return cf.config(fs)
}

// TestQuickKeepsExplicitDaysAndScale: -quick swaps in TestConfig's world
// but must not discard a -days or -scale the user set.
func TestQuickKeepsExplicitDaysAndScale(t *testing.T) {
	quick := footsteps.TestConfig()
	def := footsteps.DefaultConfig()
	cases := []struct {
		name      string
		args      []string
		wantDays  int
		wantScale float64
		wantPop   int
	}{
		// The CI hash runs use -quick -seed 7; they must keep
		// TestConfig's 30-day window and scale.
		{"quick", []string{"-quick", "-seed", "7", "record"}, 30, quick.Scale, quick.OrganicPopulation},
		{"quick-days", []string{"-quick", "-days", "5", "record"}, 5, quick.Scale, quick.OrganicPopulation},
		{"quick-scale", []string{"-quick", "-scale", "0.01", "record"}, 30, 0.01, quick.OrganicPopulation},
		{"default", []string{"record"}, def.Days, def.Scale, def.OrganicPopulation},
		{"default-days", []string{"-days", "5", "record"}, 5, def.Scale, def.OrganicPopulation},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := parseCfg(t, tc.args...)
			if cfg.Days != tc.wantDays || cfg.Scale != tc.wantScale || cfg.OrganicPopulation != tc.wantPop {
				t.Fatalf("%q: Days %d, Scale %g, population %d; want %d, %g, %d",
					tc.args, cfg.Days, cfg.Scale, cfg.OrganicPopulation, tc.wantDays, tc.wantScale, tc.wantPop)
			}
		})
	}
	if cfg := parseCfg(t, "-quick", "-seed", "7", "record"); cfg.Seed != 7 {
		t.Fatalf("-seed 7 gave Seed %d", cfg.Seed)
	}
}
