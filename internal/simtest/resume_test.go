package simtest

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"footsteps/internal/core"
	"footsteps/internal/eventio"
	"footsteps/internal/persistence"
)

// These tests lock in the resume-equivalence invariant (see
// docs/PERSISTENCE.md): a world restored from a day-N snapshot must
// produce, for the remainder of the window, an FSEV1 event stream
// byte-identical to the corresponding suffix of a straight-through run —
// and must end in byte-identical world state. Like the worker/shard
// tests, the comparison is over encoded bytes, so any divergence in
// event content, order, timing, or final state fails loudly.

// resumeConfig is smallConfig stretched to eight days so the snapshot
// days {1, 3, 7} from the issue's matrix all fall inside the window.
func resumeConfig(seed uint64, workers int) core.Config {
	cfg := smallConfig(seed, workers)
	cfg.Days = 8
	return cfg
}

// captureWithSnapshots runs a full world day by day, writing the FSEV1
// stream and, at each requested day boundary, an FSNAP1 snapshot.
func captureWithSnapshots(t *testing.T, cfg core.Config, snaps map[int]*bytes.Buffer) []byte {
	t.Helper()
	var buf bytes.Buffer
	wr, err := eventio.NewWriter(&buf)
	if err != nil {
		t.Fatalf("new writer: %v", err)
	}
	w := core.NewWorld(cfg)
	wr.Attach(w.Plat.Log())
	w.RunAll()
	for d := 1; d <= cfg.Days; d++ {
		if err := w.RunDays(1); err != nil {
			t.Fatalf("run day %d: %v", d, err)
		}
		if out, ok := snaps[d]; ok {
			if err := w.Snapshot(out); err != nil {
				t.Fatalf("snapshot day %d: %v", d, err)
			}
		}
	}
	if err := wr.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	return buf.Bytes()
}

// captureResumed restores a world from snapshot bytes, attaches a fresh
// recorder, runs out the window, and returns the resumed FSEV1 stream
// plus a final end-of-run snapshot for state comparison.
func captureResumed(t *testing.T, cfg core.Config, snap []byte) (stream, finalState []byte) {
	t.Helper()
	w, err := core.RestoreWorld(cfg, bytes.NewReader(snap))
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	var buf bytes.Buffer
	wr, err := eventio.NewWriter(&buf)
	if err != nil {
		t.Fatalf("new writer: %v", err)
	}
	wr.Attach(w.Plat.Log())
	if err := w.RunDays(cfg.Days - w.DaysRun()); err != nil {
		t.Fatalf("run resumed days: %v", err)
	}
	if err := wr.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	var final bytes.Buffer
	if err := w.Snapshot(&final); err != nil {
		t.Fatalf("final snapshot: %v", err)
	}
	return buf.Bytes(), final.Bytes()
}

// suffixAfter re-encodes, with a fresh writer (and therefore a fresh
// string table, matching a resumed recorder), the events of a full
// stream that happen strictly after the cut instant.
func suffixAfter(t *testing.T, full []byte, cut time.Time) []byte {
	t.Helper()
	r, err := eventio.NewReader(bytes.NewReader(full))
	if err != nil {
		t.Fatalf("read full stream: %v", err)
	}
	evs, err := r.ReadAll()
	if err != nil {
		t.Fatalf("decode full stream: %v", err)
	}
	var buf bytes.Buffer
	wr, err := eventio.NewWriter(&buf)
	if err != nil {
		t.Fatalf("new suffix writer: %v", err)
	}
	n := 0
	for _, ev := range evs {
		if !ev.Time.After(cut) {
			continue
		}
		if err := wr.Write(ev); err != nil {
			t.Fatalf("re-encode suffix: %v", err)
		}
		n++
	}
	if err := wr.Flush(); err != nil {
		t.Fatalf("flush suffix: %v", err)
	}
	if n < 100 {
		t.Fatalf("suffix after %v has only %d events; comparison would be vacuous", cut, n)
	}
	return buf.Bytes()
}

// snapshotInstant reads the cut instant out of a snapshot's header.
func snapshotInstant(t *testing.T, snap []byte) time.Time {
	t.Helper()
	h, _, err := persistence.DecodeBytes(snap)
	if err != nil {
		t.Fatalf("decode snapshot: %v", err)
	}
	return h.Now
}

// TestResumeEquivalence is the tentpole invariant at its simplest: for
// snapshots taken at days 1, 3, and 7 of a straight-through run, the
// restored world replays the exact remaining event bytes and lands on
// the exact final state.
func TestResumeEquivalence(t *testing.T) {
	t.Parallel()
	cfg := resumeConfig(1, 0)
	snaps := map[int]*bytes.Buffer{1: {}, 3: {}, 7: {}}
	baseline := captureWithSnapshots(t, cfg, snaps)
	if n := countEvents(t, baseline); n < 1000 {
		t.Fatalf("baseline produced only %d events; comparison would be vacuous", n)
	}
	// The straight-through day-chunked run must match Capture's single
	// RunFor, otherwise the baseline itself is suspect.
	if whole := Capture(cfg); !bytes.Equal(whole, baseline) {
		t.Fatalf("day-chunked run diverged from single-run capture: hash %s != %s",
			Hash(baseline), Hash(whole))
	}
	for day, snap := range snaps {
		day, snap := day, snap
		t.Run(fmt.Sprintf("day=%d", day), func(t *testing.T) {
			t.Parallel()
			want := suffixAfter(t, baseline, snapshotInstant(t, snap.Bytes()))
			got, _ := captureResumed(t, cfg, snap.Bytes())
			if !bytes.Equal(want, got) {
				t.Errorf("resumed stream diverged from straight-through suffix: hash %s != %s (lengths %d vs %d)",
					Hash(got), Hash(want), len(got), len(want))
			}
		})
	}
}

// TestResumeAcrossShardsAndWorkers restores one day-3 snapshot at every
// worker count and demands the identical suffix and final state from
// each: the worker count stays a pure performance knob across a
// checkpoint boundary. Platform and graph state each live in a single
// table, so every case runs at shards=1 and its name says so.
func TestResumeAcrossShardsAndWorkers(t *testing.T) {
	t.Parallel()
	cfg := resumeConfig(2, 0)
	snaps := map[int]*bytes.Buffer{3: {}}
	baseline := captureWithSnapshots(t, cfg, snaps)
	snap := snaps[3].Bytes()
	want := suffixAfter(t, baseline, snapshotInstant(t, snap))

	// Final state after a straight-through resumed run at the reference
	// configuration anchors the cross-matrix state comparison.
	refStream, refFinal := captureResumed(t, cfg, snap)
	if !bytes.Equal(want, refStream) {
		t.Fatalf("reference resume diverged: hash %s != %s", Hash(refStream), Hash(want))
	}

	for _, workers := range []int{1, 4, 8} {
		workers := workers
		t.Run(fmt.Sprintf("shards=1/workers=%d", workers), func(t *testing.T) {
			t.Parallel()
			rcfg := cfg
			rcfg.Workers = workers
			got, final := captureResumed(t, rcfg, snap)
			if !bytes.Equal(want, got) {
				t.Errorf("resumed stream diverged: hash %s != %s (lengths %d vs %d)",
					Hash(got), Hash(want), len(got), len(want))
			}
			if !bytes.Equal(refFinal, final) {
				t.Errorf("final world state diverged: hash %s != %s (lengths %d vs %d)",
					Hash(final), Hash(refFinal), len(final), len(refFinal))
			}
		})
	}
}

// TestResumeEquivalenceFaulted repeats the invariant with the mixed
// fault scenario live: retry queues, breaker positions, and fault
// windows must all survive the checkpoint.
func TestResumeEquivalenceFaulted(t *testing.T) {
	t.Parallel()
	cfg := faultedConfig(3, 0)
	cfg.Days = 8
	snaps := map[int]*bytes.Buffer{3: {}}
	baseline := captureWithSnapshots(t, cfg, snaps)
	snap := snaps[3].Bytes()
	want := suffixAfter(t, baseline, snapshotInstant(t, snap))
	for _, workers := range []int{0, 4} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			t.Parallel()
			rcfg := cfg
			rcfg.Workers = workers
			got, _ := captureResumed(t, rcfg, snap)
			if !bytes.Equal(want, got) {
				t.Errorf("faulted resume diverged: hash %s != %s (lengths %d vs %d)",
					Hash(got), Hash(want), len(got), len(want))
			}
		})
	}
}

// TestRestoreWorldRejectsForgedIDs: platform and graph rows sit at ID − 1,
// so a snapshot naming an account ID, or claiming an ID counter, past
// what the run minted would size a table. RestoreWorld must return an
// error instead, without growing the heap. Not parallel: the heap
// measurement must not see other tests' allocations.
func TestRestoreWorldRejectsForgedIDs(t *testing.T) {
	cfg := resumeConfig(6, 0)
	cfg.GraphWrites = true
	snaps := map[int]*bytes.Buffer{2: {}}
	captureWithSnapshots(t, cfg, snaps)
	clean := snaps[2].Bytes()
	if _, err := core.RestoreWorld(cfg, bytes.NewReader(clean)); err != nil {
		t.Fatalf("unforged snapshot rejected: %v", err)
	}
	for name, forge := range map[string]func(*persistence.WorldState){
		"graph account ID 1<<31":    func(st *persistence.WorldState) { st.Graph.Accounts[len(st.Graph.Accounts)-1].ID = 1 << 31 },
		"graph NextAcct 1<<31":      func(st *persistence.WorldState) { st.Graph.NextAcct = 1 << 31 },
		"graph NextPost 1<<31":      func(st *persistence.WorldState) { st.Graph.NextPost = 1 << 31 },
		"platform account ID 1<<31": func(st *persistence.WorldState) { st.Platform.Accounts[len(st.Platform.Accounts)-1].ID = 1 << 31 },
		"platform post ID 1<<31":    func(st *persistence.WorldState) { st.Platform.Accounts[0].Posts[0] = 1 << 31 },
	} {
		h, st, err := persistence.DecodeBytes(clean)
		if err != nil {
			t.Fatal(err)
		}
		forge(st)
		forged := persistence.EncodeBytes(h, st)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, err = core.RestoreWorld(cfg, bytes.NewReader(forged))
		runtime.GC()
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: RestoreWorld accepted the snapshot", name)
		}
		if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 8<<20 {
			t.Errorf("%s: rejected restore grew the heap by %d bytes", name, grew)
		}
	}
}

// TestRestoreRejectsMismatch covers the guarded failure paths: a
// snapshot restored against the wrong seed or a semantically different
// config must fail with a typed MismatchError naming the field, never
// silently produce a diverging world.
func TestRestoreRejectsMismatch(t *testing.T) {
	t.Parallel()
	cfg := resumeConfig(4, 0)
	snaps := map[int]*bytes.Buffer{1: {}}
	captureWithSnapshots(t, cfg, snaps)
	snap := snaps[1].Bytes()

	wrongSeed := cfg
	wrongSeed.Seed = 99
	var mm *persistence.MismatchError
	if _, err := core.RestoreWorld(wrongSeed, bytes.NewReader(snap)); !errors.As(err, &mm) || mm.Field != "seed" {
		t.Errorf("wrong seed: want MismatchError{Field: seed}, got %v", err)
	}

	wrongCfg := cfg
	wrongCfg.Days = cfg.Days + 1
	mm = nil
	if _, err := core.RestoreWorld(wrongCfg, bytes.NewReader(snap)); !errors.As(err, &mm) || mm.Field != "config fingerprint" {
		t.Errorf("wrong config: want MismatchError{Field: config fingerprint}, got %v", err)
	}

	// Performance knobs are excluded from the fingerprint on purpose.
	perfCfg := cfg
	perfCfg.Workers = 8
	if _, err := core.RestoreWorld(perfCfg, bytes.NewReader(snap)); err != nil {
		t.Errorf("worker change must not invalidate a snapshot, got %v", err)
	}

	// A truncated checkpoint must surface a TruncatedError with the
	// failing offset, like fsevdump does for event logs.
	var te *persistence.TruncatedError
	if _, err := core.RestoreWorld(cfg, bytes.NewReader(snap[:len(snap)/2])); !errors.As(err, &te) {
		t.Errorf("truncated snapshot: want TruncatedError, got %v", err)
	} else if te.Offset <= 0 || te.Offset > int64(len(snap)) {
		t.Errorf("truncated snapshot: implausible offset %d", te.Offset)
	}
}
