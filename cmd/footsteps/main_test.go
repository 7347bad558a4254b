package main

import (
	"flag"
	"io"
	"strings"
	"testing"

	"footsteps"
)

// assembleCfg parses args on a fresh flag set carrying the Config flags
// and returns the assembled Config and its validation error.
func assembleCfg(t *testing.T, args ...string) (footsteps.Config, error) {
	t.Helper()
	fs := flag.NewFlagSet("footsteps", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	cf := defineCfgFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %q: %v", args, err)
	}
	return cf.config(fs)
}

// parseCfg is assembleCfg for arguments that must give a valid Config.
func parseCfg(t *testing.T, args ...string) footsteps.Config {
	t.Helper()
	cfg, err := assembleCfg(t, args...)
	if err != nil {
		t.Fatalf("%q: %v", args, err)
	}
	return cfg
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

// TestInvalidConfigRejected: flag values that would panic, hang or print
// a meaningless report return an error from config assembly, before any
// world exists (the CLI then exits 2).
func TestInvalidConfigRejected(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"days=0", []string{"-quick", "-days", "0", "business"}, "days"},
		{"scale=NaN", []string{"-quick", "-scale", "NaN", "business"}, "scale"},
		{"scale=-1", []string{"-quick", "-scale", "-1", "business"}, "scale"},
		{"scale=+Inf", []string{"-scale", "+Inf", "business"}, "scale"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := assembleCfg(t, tc.args...)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("%q: error %v, want one naming %q", tc.args, err, tc.want)
			}
		})
	}
}
