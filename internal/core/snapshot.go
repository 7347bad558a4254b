package core

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"footsteps/internal/clock"
	"footsteps/internal/persistence"
)

// This file is the world-level half of snapshot/restore (the wire format
// and per-component states live in internal/persistence; the invariant
// and layout are documented in docs/PERSISTENCE.md).
//
// Restore is reconstruction, not deserialization-from-nothing: a
// snapshot holds only mutable state, and everything static — wiring,
// schedules, closures — is rebuilt by re-running NewWorld and RunAll
// with the same config, exactly as a straight-through run would. The
// scheduler is then fast-forwarded to the snapshot instant (dropping the
// already-fired portion of the schedule), every component's state is
// overwritten from the snapshot, and the pending dynamic events
// (delayed enforcements, reciprocal reactions, backoff retries) are
// re-registered from their serialized tables. From that point the
// resumed world replays the identical timeline.

// Snapshot writes the world's complete mutable state to out as one
// FSNAP1 stream. Call only at a quiescent instant (a day boundary, as
// RunDays does): no tick may be mid-flight.
func (w *World) Snapshot(out io.Writer) error {
	h := persistence.Header{
		Version:     persistence.Version,
		Seed:        w.Cfg.Seed,
		Fingerprint: w.Cfg.Fingerprint(),
		Day:         w.daysRun,
		Now:         w.Sched.Clock().Now(),
	}
	return persistence.Encode(out, h, w.snapshotState())
}

func (w *World) snapshotState() *persistence.WorldState {
	st := &persistence.WorldState{
		Root:      w.RNG.State(),
		NetAlloc:  w.Reg.SnapshotAlloc(),
		Platform:  w.Plat.SnapshotState(),
		Graph:     w.graph.SnapshotState(),
		Behavior:  w.Pop.SnapshotState(),
		Honeypots: w.Honeypots.SnapshotState(),
	}
	if w.Guard != nil {
		st.Guard = w.Guard.SnapshotState()
	}
	for _, name := range w.ServiceNames() {
		if svc, ok := w.Recip[name]; ok {
			st.Recip = append(st.Recip, persistence.NamedRecip{Name: name, State: svc.SnapshotState()})
		}
		if svc, ok := w.Coll[name]; ok {
			st.Coll = append(st.Coll, persistence.NamedColl{Name: name, State: svc.SnapshotState()})
		}
	}
	for _, r := range w.vpnRNGs {
		st.VPNRNGs = append(st.VPNRNGs, r.State())
	}
	if w.crossRNG != nil {
		st.CrossRNG = w.crossRNG.State()
	}
	for name, n := range w.crossSeen {
		st.CrossSeen = append(st.CrossSeen, persistence.ServiceCount{Name: name, N: n})
	}
	sort.Slice(st.CrossSeen, func(i, j int) bool { return st.CrossSeen[i].Name < st.CrossSeen[j].Name })
	return st
}

// RestoreWorld rebuilds a world from a snapshot written by Snapshot. The
// config must describe the same semantic world: the snapshot's seed and
// config fingerprint are checked against cfg and a *persistence.
// MismatchError is returned on disagreement. Performance knobs (Workers,
// Telemetry) are free to differ — the restored timeline is
// byte-identical regardless.
//
// The returned world sits at the snapshot instant with lifecycle
// schedules live (RunAll has been applied); drive it with RunDays. No
// event writer is attached: attach one to Plat.Log() before running if
// the resumed stream should be recorded.
func RestoreWorld(cfg Config, r io.Reader) (*World, error) {
	h, st, err := persistence.Decode(r)
	if err != nil {
		return nil, err
	}
	if h.Seed != cfg.Seed {
		return nil, &persistence.MismatchError{Field: "seed", Got: h.Seed, Want: cfg.Seed}
	}
	if fp := cfg.Fingerprint(); h.Fingerprint != fp {
		return nil, &persistence.MismatchError{Field: "config fingerprint", Got: h.Fingerprint, Want: fp}
	}
	if err := checkCounters(st); err != nil {
		return nil, err
	}

	// Rebuild all static structure exactly as the original run did.
	// Construction and lifecycle registration consume the same RNG draws
	// and scheduler sequence numbers as the original, so relative event
	// order within each instant is preserved. The events these steps
	// emit reach no recorder (nothing is attached yet), and the only
	// construction-time log subscriber — honeypot monitoring — has its
	// counters overwritten from the snapshot below.
	w := NewWorld(cfg)
	w.RunAll()
	w.Sched.FastForward(h.Now)
	w.daysRun = h.Day

	// Overwrite every component's mutable state.
	w.RNG.SetState(st.Root)
	w.Reg.RestoreAlloc(st.NetAlloc)
	// The graph goes first: the platform checks its account IDs against
	// the IDs the graph has minted.
	if err := w.graph.RestoreState(st.Graph); err != nil {
		return nil, err
	}
	if err := w.Plat.RestoreState(st.Platform); err != nil {
		return nil, err
	}
	w.Pop.RestoreState(st.Behavior)
	w.Honeypots.RestoreState(st.Honeypots)
	if w.Guard != nil && st.Guard != nil {
		w.Guard.RestoreState(st.Guard)
	}
	for _, nr := range st.Recip {
		svc, ok := w.Recip[nr.Name]
		if !ok {
			return nil, fmt.Errorf("core: snapshot has reciprocity service %q not present in this config", nr.Name)
		}
		svc.RestoreState(nr.State)
	}
	for _, nc := range st.Coll {
		svc, ok := w.Coll[nc.Name]
		if !ok {
			return nil, fmt.Errorf("core: snapshot has collusion service %q not present in this config", nc.Name)
		}
		svc.RestoreState(nc.State)
	}
	if len(st.VPNRNGs) != len(w.vpnRNGs) {
		return nil, fmt.Errorf("core: snapshot has %d VPN-user streams, this config builds %d", len(st.VPNRNGs), len(w.vpnRNGs))
	}
	for i, s := range st.VPNRNGs {
		w.vpnRNGs[i].SetState(s)
	}
	if w.crossRNG != nil {
		// Overwrite in place: the daily pass closure holds this pointer.
		w.crossRNG.SetState(st.CrossRNG)
	}
	clear(w.crossSeen)
	for _, sc := range st.CrossSeen {
		w.crossSeen[sc.Name] = sc.N
	}

	// Re-register the pending dynamic events from their serialized
	// tables, in their original per-component scheduling order. These
	// are the only schedule entries that did not come from construction.
	w.Plat.RestoreEnforcements(st.Platform.Enforcements)
	w.Pop.RestoreReactions(st.Behavior.Reactions)
	for _, nr := range st.Recip {
		w.Recip[nr.Name].RestoreRetries(nr.State.Base.Retries)
	}
	for _, nc := range st.Coll {
		w.Coll[nc.Name].RestoreRetries(nc.State.Base.Retries)
	}
	return w, nil
}

// checkCounters bounds the graph's ID counters by the platform's lists.
// Every account and post in a world is minted through platform
// registration and posting, and the platform lists each one, deleted
// accounts included. The graph sizes its ID-indexed tables by those
// counters, so a counter past the lists can only come from a corrupt
// snapshot and is rejected before anything is built.
func checkCounters(st *persistence.WorldState) error {
	posts := 0
	for i := range st.Platform.Accounts {
		posts += len(st.Platform.Accounts[i].Posts)
	}
	if uint64(st.Graph.NextAcct) > uint64(len(st.Platform.Accounts)) || uint64(st.Graph.NextPost) > uint64(posts) {
		return fmt.Errorf("core: snapshot graph ID counters %d/%d exceed the %d accounts and %d posts the platform lists",
			st.Graph.NextAcct, st.Graph.NextPost, len(st.Platform.Accounts), posts)
	}
	return nil
}

// RunDays advances the world n simulated days, one day per RunFor call
// (chunked runs replay the same timeline as one long run), writing a
// checkpoint after every CheckpointEvery completed days when a
// checkpoint directory is configured.
func (w *World) RunDays(n int) error { return w.RunDaysFunc(n, nil) }

// RunDaysFunc is RunDays with an after-day hook: after each completed
// day (and its periodic checkpoint, if armed) it calls after with the
// total days run so far. A non-nil error stops the run and is returned
// — the durable log uses this to checkpoint at day boundaries and to
// halt cleanly when its filesystem has failed.
func (w *World) RunDaysFunc(n int, after func(day int) error) error {
	for i := 0; i < n; i++ {
		w.Sched.RunFor(clock.Day)
		w.daysRun++
		if w.checkpointEvery > 0 && w.checkpointDir != "" && w.daysRun%w.checkpointEvery == 0 {
			if _, err := w.WriteCheckpoint(); err != nil {
				return err
			}
		}
		if after != nil {
			if err := after(w.daysRun); err != nil {
				return err
			}
		}
	}
	return nil
}

// DaysRun reports how many whole days RunDays has completed.
func (w *World) DaysRun() int { return w.daysRun }

// WriteCheckpoint snapshots the world into its checkpoint directory as
// checkpoint-day-NNN.fsnap and returns the path written. The file lands
// atomically (tmp + fsync + rename + dir fsync), so a crash mid-write
// can never leave a half-written snapshot under the final name.
func (w *World) WriteCheckpoint() (string, error) {
	if w.checkpointDir == "" {
		return "", fmt.Errorf("core: no checkpoint directory configured")
	}
	if err := os.MkdirAll(w.checkpointDir, 0o755); err != nil {
		return "", err
	}
	var buf bytes.Buffer
	if err := w.Snapshot(&buf); err != nil {
		return "", err
	}
	path := filepath.Join(w.checkpointDir, fmt.Sprintf("checkpoint-day-%03d.fsnap", w.daysRun))
	if err := persistence.AtomicWriteFile(path, buf.Bytes()); err != nil {
		return "", err
	}
	return path, nil
}

// SnapshotInstant reports the simulated instant a snapshot taken now
// would carry — the restore target for suffix comparisons.
func (w *World) SnapshotInstant() time.Time { return w.Sched.Clock().Now() }
