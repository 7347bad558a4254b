package intern

import (
	"math/rand"
	"testing"
)

// TestDenseMonotonicAssignment: slots come out 0, 1, 2, … in first-sight
// order, and re-asking for a known ID returns its original slot.
func TestDenseMonotonicAssignment(t *testing.T) {
	var d Dense
	ids := []uint64{900, 7, 42, 1 << 40, 0}
	for want, id := range ids {
		if got := d.Index(id); got != uint32(want) {
			t.Fatalf("Index(%d) = %d, want %d", id, got, want)
		}
	}
	// Second pass must be stable.
	for want, id := range ids {
		if got := d.Index(id); got != uint32(want) {
			t.Fatalf("second Index(%d) = %d, want %d", id, got, want)
		}
		if got, ok := d.Lookup(id); !ok || got != uint32(want) {
			t.Fatalf("Lookup(%d) = %d,%v, want %d,true", id, got, ok, want)
		}
	}
	if d.Len() != len(ids) {
		t.Fatalf("Len = %d, want %d", d.Len(), len(ids))
	}
	for slot, id := range ids {
		if got := d.ID(uint32(slot)); got != id {
			t.Fatalf("ID(%d) = %d, want %d", slot, got, id)
		}
	}
	if _, ok := d.Lookup(999999); ok {
		t.Fatal("Lookup of unseen ID reported ok")
	}
}

// TestDenseSnapshotRestore: IDs → Restore round-trips the whole mapping,
// and the restored allocator continues assigning from where the
// original left off.
func TestDenseSnapshotRestore(t *testing.T) {
	var d Dense
	for _, id := range []uint64{5, 17, 2, 1000} {
		d.Index(id)
	}
	snap := append([]uint64(nil), d.IDs()...)

	var r Dense
	r.Index(12345) // pre-existing state must be discarded
	r.Restore(snap)
	if r.Len() != d.Len() {
		t.Fatalf("restored Len = %d, want %d", r.Len(), d.Len())
	}
	for slot, id := range snap {
		if got, ok := r.Lookup(id); !ok || got != uint32(slot) {
			t.Fatalf("restored Lookup(%d) = %d,%v, want %d,true", id, got, ok, slot)
		}
		if got := r.ID(uint32(slot)); got != id {
			t.Fatalf("restored ID(%d) = %d, want %d", slot, got, id)
		}
	}
	if got := r.Index(777); got != uint32(len(snap)) {
		t.Fatalf("post-restore Index = %d, want %d", got, len(snap))
	}

	// A corrupt snapshot with a duplicated sparse ID must be rejected.
	defer func() {
		if recover() == nil {
			t.Fatal("Restore accepted duplicate sparse IDs")
		}
	}()
	var c Dense
	c.Restore([]uint64{1, 2, 1})
}

// TestDenseNoCollisionNoRecycle is the property test: across a random
// interleaving of fresh and repeated IDs, every distinct sparse ID gets
// exactly one slot, no two IDs share a slot, and no slot is ever
// reassigned.
func TestDenseNoCollisionNoRecycle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var d Dense
	seen := make(map[uint64]uint32)  // sparse → slot we first observed
	owner := make(map[uint32]uint64) // slot → sparse ID that owns it
	for i := 0; i < 200_000; i++ {
		var id uint64
		if len(seen) > 0 && rng.Intn(3) == 0 {
			// Revisit a known ID.
			id = d.IDs()[rng.Intn(d.Len())]
		} else {
			id = rng.Uint64() >> rng.Intn(40) // mix dense and sparse ranges
		}
		slot := d.Index(id)
		if prev, ok := seen[id]; ok {
			if slot != prev {
				t.Fatalf("ID %d moved from slot %d to %d", id, prev, slot)
			}
			continue
		}
		if other, taken := owner[slot]; taken {
			t.Fatalf("slot %d recycled: owned by %d, reassigned to %d", slot, other, id)
		}
		if int(slot) != len(seen) {
			t.Fatalf("non-monotonic assignment: fresh ID %d got slot %d, want %d", id, slot, len(seen))
		}
		seen[id] = slot
		owner[slot] = id
	}
	if d.Len() != len(seen) {
		t.Fatalf("Len = %d, distinct IDs = %d", d.Len(), len(seen))
	}
}

// TestDenseGrow: Grow keeps every existing assignment, and the n fresh
// IDs that follow it are assigned without allocating.
func TestDenseGrow(t *testing.T) {
	var d Dense
	d.Index(40)
	d.Index(2)
	// AllocsPerRun calls the function once to warm up, then once more.
	const n = 1000
	d.Grow(2 * n)
	if got, ok := d.Lookup(40); !ok || got != 0 {
		t.Fatalf("Lookup(40) after Grow = %d,%v, want 0,true", got, ok)
	}
	if got, ok := d.Lookup(2); !ok || got != 1 {
		t.Fatalf("Lookup(2) after Grow = %d,%v, want 1,true", got, ok)
	}
	next := uint64(100)
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < n; i++ {
			next++
			d.Index(next)
		}
	})
	if allocs != 0 {
		t.Errorf("%d Index calls after Grow(%d) allocated %v times, want 0", n, 2*n, allocs)
	}
	if d.Len() != 2*n+2 || d.ID(uint32(2*n+1)) != next {
		t.Fatalf("Len = %d, last ID = %d; want %d, %d", d.Len(), d.ID(uint32(d.Len()-1)), 2*n+2, next)
	}
}
