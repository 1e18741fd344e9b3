package prefetch

import (
	"math/bits"

	"repro/internal/lru"
)

// Table is a generic set-associative LRU metadata table — the structure
// behind FT, AT, PHT, DPCT, Bingo/SMS history tables and the prefetch
// buffer. Entries hold a caller-defined payload V and are located by
// (set, tag).
//
// Storage is structure-of-arrays: tags are packed in their own slice so
// the per-way scans every prefetcher runs on every training access stream
// through contiguous words, and payloads are only touched for the way
// that matches. Each set keeps its exact LRU order as an internal/lru
// recency word plus a valid bit per way.
//
// A miss fills the lowest free way, else the order's victim. Invalidate
// clears only the valid bit and leaves the order alone, and this is
// exactly the stamp LRU (touched ways stamped from a table clock, argmin
// victim, first free way among ties): free ways are chosen from the mask
// before the order is read, and a full set has filled, and so moved to
// the MRU, every way since that way's last invalidation, so the order
// among its ways is the stamp order.
type Table[V any] struct {
	sets  int
	ways  int
	mru   uint // lru.MRUShift(ways)
	tags  []uint64
	vals  []V
	state []tableSet
}

// tableSet is one set's recency order and valid mask.
type tableSet struct {
	order uint64
	valid uint16
}

// NewTable allocates a sets×ways table. sets must be a power of two and
// ways between 1 and lru.MaxWays.
func NewTable[V any](sets, ways int) *Table[V] {
	if sets <= 0 || sets&(sets-1) != 0 || ways <= 0 || ways > lru.MaxWays {
		panic("prefetch: table sets must be a positive power of two, ways between 1 and 16")
	}
	n := sets * ways
	t := &Table[V]{
		sets: sets, ways: ways, mru: lru.MRUShift(ways),
		tags:  make([]uint64, n),
		vals:  make([]V, n),
		state: make([]tableSet, sets),
	}
	order := lru.Init(ways)
	for i := range t.state {
		t.state[i].order = order
	}
	return t
}

// Sets returns the number of sets.
func (t *Table[V]) Sets() int { return t.sets }

// Ways returns the associativity.
func (t *Table[V]) Ways() int { return t.ways }

// SetIndex maps an arbitrary key to a set index.
func (t *Table[V]) SetIndex(key uint64) int { return int(key) & (t.sets - 1) }

// find returns the state of set setIdx, the table index of its way 0, and
// the way holding a valid tag entry, or -1. A stale tag word on an
// invalidated way cannot false-match because validity is checked in the
// set's mask.
func (t *Table[V]) find(setIdx int, tag uint64) (s *tableSet, base, way int) {
	set := setIdx & (t.sets - 1)
	s, base = &t.state[set], set*t.ways
	for i, tg := range t.tags[base : base+t.ways] {
		if tg == tag && s.valid&(1<<i) != 0 {
			return s, base, i
		}
	}
	return s, base, -1
}

// Lookup finds (set, tag) and refreshes its LRU position. It returns a
// pointer to the payload, valid until the next Insert into the same set.
func (t *Table[V]) Lookup(setIdx int, tag uint64) (*V, bool) {
	if s, base, w := t.find(setIdx, tag); w >= 0 {
		s.order = lru.Promote(s.order, w, t.mru)
		return &t.vals[base+w], true
	}
	return nil, false
}

// Peek finds (set, tag) without refreshing LRU.
func (t *Table[V]) Peek(setIdx int, tag uint64) (*V, bool) {
	if _, base, w := t.find(setIdx, tag); w >= 0 {
		return &t.vals[base+w], true
	}
	return nil, false
}

// Insert places a payload at (set, tag), evicting the LRU entry of the set
// when full. It returns the evicted payload (zero V when nothing valid was
// displaced) and whether an eviction happened.
func (t *Table[V]) Insert(setIdx int, tag uint64, val V) (evicted V, wasEvict bool) {
	s, base, w := t.find(setIdx, tag)
	if w >= 0 {
		t.vals[base+w] = val
		s.order = lru.Promote(s.order, w, t.mru)
		return evicted, false
	}
	if w = bits.TrailingZeros16(^s.valid); w < t.ways {
		s.valid |= 1 << w
		s.order = lru.Promote(s.order, w, t.mru)
	} else {
		w = lru.Victim(s.order)
		evicted, wasEvict = t.vals[base+w], true
		s.order = lru.Rotate(s.order, t.mru)
	}
	t.tags[base+w] = tag
	t.vals[base+w] = val
	return evicted, wasEvict
}

// Invalidate removes (set, tag); it reports whether an entry was removed
// and returns the removed payload.
func (t *Table[V]) Invalidate(setIdx int, tag uint64) (V, bool) {
	var zero V
	if s, base, w := t.find(setIdx, tag); w >= 0 {
		v := t.vals[base+w]
		s.valid &^= 1 << w
		t.vals[base+w] = zero
		return v, true
	}
	return zero, false
}

// ScanSet iterates the valid entries of one set in way order without
// touching LRU state; fn returning false stops the scan. Bingo-style
// dual-tag lookups (exact long-event match first, then approximate
// short-event match) use this to inspect all ways of a set.
func (t *Table[V]) ScanSet(setIdx int, fn func(tag uint64, val *V) bool) {
	set := setIdx & (t.sets - 1)
	base := set * t.ways
	for m := t.state[set].valid; m != 0; m &= m - 1 {
		i := base + bits.TrailingZeros16(m)
		if !fn(t.tags[i], &t.vals[i]) {
			return
		}
	}
}

// Len returns the number of valid entries.
func (t *Table[V]) Len() int {
	n := 0
	for _, s := range t.state {
		n += bits.OnesCount16(s.valid)
	}
	return n
}
