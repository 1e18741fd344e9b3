package prefetch

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
)

// refTable is the reference model Table is held to: the plain stamp LRU.
// Every recency update stamps the entry from a never-wrapping,
// pre-incremented table clock, so live entries always stamp >= 1 and
// stamp 0 marks an invalid way. A miss fills the way with the smallest
// stamp, the first among ties: the first free way, else the LRU. The
// model keeps no recency word and no valid mask: it is the specification
// Table's layout must reproduce.
type refTable struct {
	sets, ways int
	tags       []uint64
	stamp      []uint64
	vals       []int
	clock      uint64
}

func newRefTable(sets, ways int) *refTable {
	n := sets * ways
	return &refTable{sets: sets, ways: ways,
		tags: make([]uint64, n), stamp: make([]uint64, n), vals: make([]int, n)}
}

func (r *refTable) base(setIdx int) int { return (setIdx & (r.sets - 1)) * r.ways }

func (r *refTable) find(setIdx int, tag uint64) int {
	base := r.base(setIdx)
	for i := base; i < base+r.ways; i++ {
		if r.tags[i] == tag && r.stamp[i] != 0 {
			return i
		}
	}
	return -1
}

func (r *refTable) Lookup(setIdx int, tag uint64) (*int, bool) {
	r.clock++
	if i := r.find(setIdx, tag); i >= 0 {
		r.stamp[i] = r.clock
		return &r.vals[i], true
	}
	return nil, false
}

func (r *refTable) Peek(setIdx int, tag uint64) (*int, bool) {
	if i := r.find(setIdx, tag); i >= 0 {
		return &r.vals[i], true
	}
	return nil, false
}

func (r *refTable) Insert(setIdx int, tag uint64, val int) (evicted int, wasEvict bool) {
	r.clock++
	if i := r.find(setIdx, tag); i >= 0 {
		r.vals[i] = val
		r.stamp[i] = r.clock
		return 0, false
	}
	base := r.base(setIdx)
	victim := base
	for i := base + 1; i < base+r.ways; i++ {
		if r.stamp[i] < r.stamp[victim] {
			victim = i
		}
	}
	if r.stamp[victim] != 0 {
		evicted, wasEvict = r.vals[victim], true
	}
	r.tags[victim], r.stamp[victim], r.vals[victim] = tag, r.clock, val
	return evicted, wasEvict
}

func (r *refTable) Invalidate(setIdx int, tag uint64) (int, bool) {
	if i := r.find(setIdx, tag); i >= 0 {
		v := r.vals[i]
		r.tags[i], r.stamp[i], r.vals[i] = 0, 0, 0
		return v, true
	}
	return 0, false
}

func (r *refTable) ScanSet(setIdx int, fn func(tag uint64, val *int) bool) {
	base := r.base(setIdx)
	for i := base; i < base+r.ways; i++ {
		if r.stamp[i] != 0 && !fn(r.tags[i], &r.vals[i]) {
			return
		}
	}
}

func (r *refTable) Len() int {
	n := 0
	for _, s := range r.stamp {
		if s != 0 {
			n++
		}
	}
	return n
}

// scanned is one entry a ScanSet visited.
type scanned struct {
	tag uint64
	val int
}

// scan collects the first limit entries ScanSet visits in one set.
func scan(scanSet func(int, func(uint64, *int) bool), setIdx, limit int) []scanned {
	var out []scanned
	scanSet(setIdx, func(tag uint64, v *int) bool {
		out = append(out, scanned{tag, *v})
		return len(out) < limit
	})
	return out
}

// The operation alphabet of diffTable. Insert takes two of the eight
// kinds, so sets fill up and evict between invalidations.
const (
	tabInsert = iota
	tabLookup
	tabPeek
	tabInvalidate
	tabScan
	tabLen
	tabInsert2
	tabLookupWrite
	numTabOps
)

// diffTable replays ops on a Table and on the reference model, three
// bytes per operation (kind, tag, set), and describes the first operation
// after which their returns, evicted payloads or set contents in ScanSet
// order differ; it returns "" when they agree throughout. The payload
// written by an operation is its index, so every evicted or returned
// payload names the operation that stored it. Tags come from a pool of
// 2*ways+1 per set so sequences mix hits, misses and evictions, and set
// bytes are passed unmasked to exercise the tables' own masking.
func diffTable(sets, ways int, ops []byte) string {
	tb := NewTable[int](sets, ways)
	ref := newRefTable(sets, ways)
	pool := 2*ways + 1
	for n := 0; n+3 <= len(ops); n += 3 {
		kind, tag, setIdx := int(ops[n])%numTabOps, uint64(int(ops[n+1])%pool), int(ops[n+2])
		val := n/3 + 1
		var got, want any
		switch kind {
		case tabInsert, tabInsert2:
			e, w := tb.Insert(setIdx, tag, val)
			re, rw := ref.Insert(setIdx, tag, val)
			got, want = [2]any{e, w}, [2]any{re, rw}
		case tabLookup, tabLookupWrite:
			p, ok := tb.Lookup(setIdx, tag)
			rp, rok := ref.Lookup(setIdx, tag)
			if ok != rok {
				got, want = ok, rok
				break
			}
			if ok {
				got, want = *p, *rp
				if kind == tabLookupWrite {
					*p, *rp = val, val
				}
			}
		case tabPeek:
			p, ok := tb.Peek(setIdx, tag)
			rp, rok := ref.Peek(setIdx, tag)
			got, want = ok, rok
			if ok && rok {
				got, want = *p, *rp
			}
		case tabInvalidate:
			v, ok := tb.Invalidate(setIdx, tag)
			rv, rok := ref.Invalidate(setIdx, tag)
			got, want = [2]any{v, ok}, [2]any{rv, rok}
		case tabScan:
			limit := 1 + int(tag)%(ways+1)
			got, want = fmt.Sprint(scan(tb.ScanSet, setIdx, limit)), fmt.Sprint(scan(ref.ScanSet, setIdx, limit))
		case tabLen:
			got, want = tb.Len(), ref.Len()
		}
		if got != want {
			return fmt.Sprintf("op %d (kind %d, set %d, tag %d): got %v, reference %v", n/3, kind, setIdx, tag, got, want)
		}
		for s := 0; s < sets; s++ {
			if g, w := scan(tb.ScanSet, s, ways), scan(ref.ScanSet, s, ways); !slices.Equal(g, w) {
				return fmt.Sprintf("op %d (kind %d, set %d, tag %d): set %d holds %v, reference %v", n/3, kind, setIdx, tag, s, g, w)
			}
		}
	}
	return ""
}

// TestTableMatchesReference drives Table and the stamp-LRU reference
// model with seeded random operation sequences over power-of-two
// associativities up to the 16-way limit and small set counts.
func TestTableMatchesReference(t *testing.T) {
	for _, ways := range []int{1, 2, 4, 8, 16} {
		for _, sets := range []int{1, 2, 4} {
			for seed := uint64(1); seed <= 4; seed++ {
				rng := rand.New(rand.NewPCG(seed, uint64(ways*sets)))
				ops := make([]byte, 3*3000)
				for i := range ops {
					ops[i] = byte(rng.Uint32())
				}
				if d := diffTable(sets, ways, ops); d != "" {
					t.Fatalf("ways=%d sets=%d seed=%d: %s", ways, sets, seed, d)
				}
			}
		}
	}
}

// FuzzTableMatchesReference is TestTableMatchesReference with the
// geometry and the operation sequence read from the fuzz input: byte 0
// picks 1–16 ways, byte 1 picks 1, 2 or 4 sets, and the rest are
// operations.
func FuzzTableMatchesReference(f *testing.F) {
	f.Add([]byte{1, 0, tabInsert, 1, 0, tabInsert, 2, 0, tabLookup, 1, 0, tabInsert, 3, 0, tabScan, 4, 0})
	f.Add([]byte{7, 2, tabInsert, 5, 1, tabInvalidate, 5, 1, tabInsert, 6, 5, tabInsert, 7, 1, tabLookupWrite, 6, 1, tabPeek, 6, 1, tabLen, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		ways, sets := 1+int(data[0])%16, 1<<(int(data[1])%3)
		if d := diffTable(sets, ways, data[2:]); d != "" {
			t.Fatalf("ways=%d sets=%d: %s", ways, sets, d)
		}
	})
}
