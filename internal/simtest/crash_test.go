package simtest

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"footsteps/internal/core"
	"footsteps/internal/durable"
	"footsteps/internal/platform"
)

// These tests lock in the crash-recovery contract of internal/durable
// (docs/PERSISTENCE.md): kill the process — deterministically, at any
// filesystem operation — and recovery must reconstruct an FSEV1 stream
// and final world state byte-identical to the uninterrupted run's.
// CrashFS models power loss (unsynced writes torn or dropped), so the
// property holds under short writes, fsync failures, and ENOSPC, not
// just clean kills. Damage the durable region instead and recovery
// must refuse with a typed error, never panic or silently drop data.

const durDir = "log"

// attachDurable subscribes the durable log to the world's event
// stream. Append errors are swallowed here exactly like the CLI does:
// the log keeps its first error sticky and the day loop stops at the
// next boundary.
func attachDurable(w *core.World, dlog *durable.Log) {
	w.Plat.Log().Subscribe(func(ev platform.Event) { _ = dlog.Append(ev) })
}

// dayLoop drives the remaining window with a checkpoint at every day
// boundary, halting early once the log has soaked up a crash.
func dayLoop(w *core.World, dlog *durable.Log) error {
	err := w.RunDaysFunc(w.Cfg.Days-w.DaysRun(), func(day int) error {
		if err := dlog.Checkpoint(day, w.Snapshot); err != nil {
			return err
		}
		return dlog.Err()
	})
	if err != nil {
		_ = dlog.Close()
		return err
	}
	return dlog.Close()
}

// runDurableFresh runs a whole world with a durable log on fsys. The
// returned error is the crash (if the plan fired); the world comes back
// either way so completed runs can snapshot their final state.
func runDurableFresh(cfg core.Config, fsys durable.FS, opts durable.Options) (*core.World, error) {
	dlog, err := durable.Create(fsys, durDir, opts)
	if err != nil {
		return nil, err
	}
	w := core.NewWorld(cfg)
	attachDurable(w, dlog)
	w.RunAll()
	return w, dayLoop(w, dlog)
}

// runDurableResume is the recovery path: open the log, restore the
// recovered checkpoint (or rebuild from genesis), and run out the
// window. It returns the recovery report for assertions.
func runDurableResume(cfg core.Config, fsys durable.FS, opts durable.Options) (*core.World, *durable.Recovery, error) {
	dlog, err := durable.Resume(fsys, durDir, opts)
	if err != nil {
		return nil, nil, err
	}
	rec := dlog.Recovery()
	var w *core.World
	if rec.CheckpointFile == "" {
		w = core.NewWorld(cfg)
		attachDurable(w, dlog)
		w.RunAll()
	} else {
		w, err = core.RestoreWorld(cfg, bytes.NewReader(rec.Checkpoint))
		if err != nil {
			return nil, rec, err
		}
		attachDurable(w, dlog)
	}
	return w, rec, dayLoop(w, dlog)
}

func finalState(t *testing.T, w *core.World) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := w.Snapshot(&buf); err != nil {
		t.Fatalf("final snapshot: %v", err)
	}
	return buf.Bytes()
}

func reconstruct(t *testing.T, fsys durable.FS) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := durable.Reconstruct(fsys, durDir, &buf); err != nil {
		t.Fatalf("reconstruct: %v", err)
	}
	return buf.Bytes()
}

// TestDurableLogInert pins durability as a pure observer: with the log
// attached (both fsync modes), the reconstructed stream is
// byte-identical to a plain Capture of the same config.
func TestDurableLogInert(t *testing.T) {
	t.Parallel()
	cfg := smallConfig(42, 4)
	want := Capture(cfg)
	for _, every := range []bool{false, true} {
		every := every
		t.Run(fmt.Sprintf("fsyncEveryBatch=%v", every), func(t *testing.T) {
			t.Parallel()
			fsys := durable.NewMemFS()
			opts := durable.Options{Seed: cfg.Seed, Fingerprint: cfg.Fingerprint(), FsyncEveryBatch: every}
			if _, err := runDurableFresh(cfg, fsys, opts); err != nil {
				t.Fatalf("durable run: %v", err)
			}
			got := reconstruct(t, fsys)
			if !bytes.Equal(got, want) {
				t.Fatalf("durable stream %s != plain stream %s", Hash(got), Hash(want))
			}
		})
	}
}

// crashMatrixCase runs the full property for one configuration: probe
// the uninterrupted run (its stream must already match the plain
// capture, its op count calibrates the kill points), then for each
// deterministic kill point crash, recover, finish, and require byte
// equality of both the reconstructed stream and the final state.
func crashMatrixCase(t *testing.T, cfg core.Config, baseline []byte, fracs []float64) {
	t.Helper()
	opts := durable.Options{Seed: cfg.Seed, Fingerprint: cfg.Fingerprint()}

	probe := durable.NewCrashFS(durable.CrashPlan{Seed: cfg.Seed})
	w, err := runDurableFresh(cfg, probe, opts)
	if err != nil {
		t.Fatalf("probe run: %v", err)
	}
	wantFinal := finalState(t, w)
	if got := reconstruct(t, probe); !bytes.Equal(got, baseline) {
		t.Fatalf("probe durable stream %s != baseline %s", Hash(got), Hash(baseline))
	}
	total := probe.Ops()
	if total < 40 {
		t.Fatalf("probe issued only %d fs ops; kill points would land in setup", total)
	}

	for _, frac := range fracs {
		kill := uint64(float64(total) * frac)
		plan := durable.CrashPlan{Seed: cfg.Seed, KillAt: kill}
		t.Run(fmt.Sprintf("kill=%d_%s", kill, plan.Mode()), func(t *testing.T) {
			cfs := durable.NewCrashFS(plan)
			if _, err := runDurableFresh(cfg, cfs, opts); err == nil {
				t.Fatalf("crash at op %d/%d did not surface", kill, total)
			}
			if !cfs.Crashed() {
				t.Fatalf("plan did not fire (op %d of %d)", kill, total)
			}
			// Recovery runs against the durable image — exactly the
			// bytes that survived the power loss.
			img := cfs.Image()
			w, rec, err := runDurableResume(cfg, img, opts)
			if err != nil {
				t.Fatalf("recovery (checkpoint day %d, torn=%v): %v", rec.CheckpointDay, rec.TornTail, err)
			}
			if got := reconstruct(t, img); !bytes.Equal(got, baseline) {
				t.Fatalf("recovered stream %s != baseline %s (checkpoint day %d, discarded %d events)",
					Hash(got), Hash(baseline), rec.CheckpointDay, rec.DiscardedEvents)
			}
			if got := finalState(t, w); !bytes.Equal(got, wantFinal) {
				t.Fatalf("recovered final state differs from uninterrupted run")
			}
		})
	}
}

// TestCrashRecoveryProperty is the tentpole matrix: workers {1,4,8},
// faults off and on, three deterministic kill points each (the failure
// mode at each point — short write, fsync error, ENOSPC — is a
// SplitMix64 verdict of the kill op). Case names carry shards=1:
// platform and graph state each live in a single table.
func TestCrashRecoveryProperty(t *testing.T) {
	t.Parallel()
	workersList := []int{1, 4, 8}
	fracs := []float64{0.25, 0.55, 0.85}
	if testing.Short() {
		workersList = []int{4}
	}
	for _, faulted := range []bool{false, true} {
		faulted := faulted
		base := smallConfig(7, 1)
		if faulted {
			base = faultedConfig(7, 1)
		}
		baseline := Capture(base)
		for _, workers := range workersList {
			workers := workers
			t.Run(fmt.Sprintf("faults=%v/shards=1/workers=%d", faulted, workers), func(t *testing.T) {
				t.Parallel()
				cfg := smallConfig(7, workers)
				if faulted {
					cfg = faultedConfig(7, workers)
				}
				crashMatrixCase(t, cfg, baseline, fracs)
			})
		}
	}
}

// TestCrashRecoveryTypedErrors: damage inside the durable region must
// surface as typed errors from recovery — never a panic, never a
// silently shortened stream.
func TestCrashRecoveryTypedErrors(t *testing.T) {
	t.Parallel()
	cfg := smallConfig(3, 1)
	opts := durable.Options{Seed: cfg.Seed, Fingerprint: cfg.Fingerprint()}
	build := func(t *testing.T) *durable.MemFS {
		fsys := durable.NewMemFS()
		if _, err := runDurableFresh(cfg, fsys, opts); err != nil {
			t.Fatalf("build run: %v", err)
		}
		return fsys
	}

	t.Run("corrupt manifest", func(t *testing.T) {
		t.Parallel()
		fsys := build(t)
		if err := fsys.Corrupt(durDir+"/MANIFEST", 12, 0x04); err != nil {
			t.Fatal(err)
		}
		var merr *durable.ManifestError
		if _, _, err := runDurableResume(cfg, fsys, opts); !errors.As(err, &merr) {
			t.Fatalf("resume over corrupt manifest = %v, want ManifestError", err)
		}
	})
	t.Run("corrupt sealed segment", func(t *testing.T) {
		t.Parallel()
		fsys := build(t)
		if err := fsys.Corrupt(durDir+"/seg-00000.fseg", 200, 0x80); err != nil {
			t.Fatal(err)
		}
		var cerr *durable.CorruptError
		if _, _, err := runDurableResume(cfg, fsys, opts); !errors.As(err, &cerr) {
			t.Fatalf("resume over corrupt segment = %v, want CorruptError", err)
		}
	})
	t.Run("wrong config fingerprint", func(t *testing.T) {
		t.Parallel()
		fsys := build(t)
		other := opts
		other.Fingerprint++
		var merr *durable.MismatchError
		if _, _, err := runDurableResume(cfg, fsys, other); !errors.As(err, &merr) {
			t.Fatalf("resume with wrong fingerprint = %v, want MismatchError", err)
		}
	})
}
