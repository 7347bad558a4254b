package intern

import (
	"maps"
	"slices"
)

// Dense assigns compact uint32 slots to sparse uint64 identifiers so
// struct-of-arrays tables can be indexed by a small dense integer
// instead of a map lookup per field. It is the ID half of the interning
// idea: where Table collapses duplicate strings to one canonical copy,
// Dense collapses a sparse, ever-growing ID space onto the prefix
// [0, Len) of the natural numbers.
//
// Slots are assigned monotonically in first-sight order and are never
// recycled within a run — a slot, once handed out, names the same sparse
// ID forever. That invariant is what makes slots safe to use as indexes
// into parallel arrays that outlive the entity (a deleted account keeps
// its row; the owning table marks it dead rather than compacting).
//
// Dense is not concurrency-safe: each lock-striped shard owns its own
// allocator and touches it only under the shard lock, exactly like the
// map it replaces.
type Dense struct {
	slot map[uint64]uint32 // sparse ID → dense slot
	ids  []uint64          // dense slot → sparse ID (reverse table)
}

// Index returns the dense slot for id, assigning the next free slot on
// first sight. Slots count up from 0 in assignment order.
func (d *Dense) Index(id uint64) uint32 {
	if s, ok := d.slot[id]; ok {
		return s
	}
	if d.slot == nil {
		d.slot = make(map[uint64]uint32)
	}
	s := uint32(len(d.ids))
	d.slot[id] = s
	d.ids = append(d.ids, id)
	return s
}

// Grow pre-sizes the allocator for n more slots, so the next n fresh
// IDs are assigned without rehashing the slot map or regrowing the
// reverse table. Call it before a known burst of assignments, such as
// registering a world's population; it never changes any assignment.
func (d *Dense) Grow(n int) {
	if n <= 0 {
		return
	}
	d.ids = slices.Grow(d.ids, n)
	slot := make(map[uint64]uint32, len(d.slot)+n)
	maps.Copy(slot, d.slot)
	d.slot = slot
}

// Lookup returns the slot already assigned to id, or ok=false if id has
// never been seen. It never allocates a slot.
func (d *Dense) Lookup(id uint64) (slot uint32, ok bool) {
	s, ok := d.slot[id]
	return s, ok
}

// ID returns the sparse identifier assigned to slot. It panics if slot
// has never been assigned, mirroring out-of-range slice indexing.
func (d *Dense) ID(slot uint32) uint64 { return d.ids[slot] }

// Len reports how many slots have been assigned. Valid slots are
// exactly [0, Len).
func (d *Dense) Len() int { return len(d.ids) }

// IDs exposes the reverse table — slot i holds the sparse ID assigned
// slot i. The caller must not mutate it; it is the allocator's snapshot
// form (see Restore).
func (d *Dense) IDs() []uint64 { return d.ids }

// Restore rebuilds the allocator from a reverse table previously
// obtained from IDs: ids[i] is assigned slot i. Any existing state is
// discarded. Duplicate entries would silently alias two slots to one
// sparse ID, so Restore panics on them — a snapshot can never contain
// duplicates unless it is corrupt.
func (d *Dense) Restore(ids []uint64) {
	d.slot = make(map[uint64]uint32, len(ids))
	d.ids = append(d.ids[:0], ids...)
	for i, id := range d.ids {
		if _, dup := d.slot[id]; dup {
			panic("intern: duplicate sparse ID in Dense.Restore")
		}
		d.slot[id] = uint32(i)
	}
}
