package prefetch

import (
	"testing"
	"testing/quick"
)

func TestTableLookupInsert(t *testing.T) {
	tb := NewTable[int](4, 2)
	if _, ok := tb.Lookup(0, 100); ok {
		t.Fatal("empty table hit")
	}
	tb.Insert(0, 100, 7)
	v, ok := tb.Lookup(0, 100)
	if !ok || *v != 7 {
		t.Fatalf("lookup after insert: %v, %v", v, ok)
	}
	// Same tag in a different set is distinct.
	if _, ok := tb.Lookup(1, 100); ok {
		t.Error("cross-set hit")
	}
}

func TestTableLRUEviction(t *testing.T) {
	tb := NewTable[string](1, 2)
	tb.Insert(0, 1, "a")
	tb.Insert(0, 2, "b")
	tb.Lookup(0, 1) // refresh "a"
	ev, was := tb.Insert(0, 3, "c")
	if !was || ev != "b" {
		t.Fatalf("evicted %q (was=%v), want \"b\"", ev, was)
	}
	if _, ok := tb.Peek(0, 1); !ok {
		t.Error("MRU entry evicted")
	}
}

func TestTableInsertUpdatesInPlace(t *testing.T) {
	tb := NewTable[int](2, 2)
	tb.Insert(0, 5, 1)
	ev, was := tb.Insert(0, 5, 2)
	if was {
		t.Errorf("in-place update reported eviction of %v", ev)
	}
	v, _ := tb.Peek(0, 5)
	if *v != 2 {
		t.Errorf("payload = %d, want 2", *v)
	}
	if tb.Len() != 1 {
		t.Errorf("Len = %d, want 1", tb.Len())
	}
}

func TestTablePeekDoesNotRefreshLRU(t *testing.T) {
	tb := NewTable[int](1, 2)
	tb.Insert(0, 1, 1)
	tb.Insert(0, 2, 2)
	tb.Peek(0, 1) // must NOT refresh
	tb.Insert(0, 3, 3)
	if _, ok := tb.Peek(0, 1); ok {
		t.Error("peeked entry survived eviction; Peek refreshed LRU")
	}
}

func TestTableInvalidate(t *testing.T) {
	tb := NewTable[int](2, 2)
	tb.Insert(1, 9, 42)
	v, ok := tb.Invalidate(1, 9)
	if !ok || v != 42 {
		t.Fatalf("invalidate returned %v, %v", v, ok)
	}
	if _, ok := tb.Peek(1, 9); ok {
		t.Error("entry present after invalidate")
	}
	if _, ok := tb.Invalidate(1, 9); ok {
		t.Error("double invalidate succeeded")
	}
}

func TestTableScanSetAndLen(t *testing.T) {
	tb := NewTable[int](4, 2)
	tb.Insert(0, 1, 10)
	tb.Insert(1, 2, 20)
	tb.Insert(2, 3, 30)
	sum := 0
	for s := 0; s < tb.Sets(); s++ {
		tb.ScanSet(s, func(_ uint64, v *int) bool { sum += *v; return true })
	}
	if sum != 60 {
		t.Errorf("ScanSet sum = %d, want 60", sum)
	}
	tb.Invalidate(1, 2)
	if tb.Len() != 2 {
		t.Errorf("Len after Invalidate = %d, want 2", tb.Len())
	}
}

// TestTableDPCTEvictsLRU is Gaze's DPCT use: a one-set table of hashed
// PCs, where a hit refreshes a PC and a new PC evicts the LRU one.
func TestTableDPCTEvictsLRU(t *testing.T) {
	d := NewTable[struct{}](1, 2)
	d.Insert(0, 1, struct{}{})
	d.Insert(0, 2, struct{}{})
	d.Lookup(0, 1)                                  // refresh 1
	if _, was := d.Insert(0, 3, struct{}{}); !was { // evicts 2
		t.Error("full DPCT did not evict")
	}
	_, has1 := d.Lookup(0, 1)
	_, has2 := d.Lookup(0, 2)
	_, has3 := d.Lookup(0, 3)
	if !has1 || has2 || !has3 {
		t.Errorf("DPCT holds 1:%v 2:%v 3:%v, want 1 and 3", has1, has2, has3)
	}
}

func TestTableSetMasking(t *testing.T) {
	tb := NewTable[int](4, 1)
	tb.Insert(5, 7, 1) // set 5 & 3 == 1
	if _, ok := tb.Lookup(1, 7); !ok {
		t.Error("set index not masked consistently")
	}
}

func TestTablePanicsOnBadGeometry(t *testing.T) {
	for _, c := range []struct{ sets, ways int }{{0, 1}, {3, 1}, {4, 0}, {4, 17}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewTable(%d,%d) did not panic", c.sets, c.ways)
				}
			}()
			NewTable[int](c.sets, c.ways)
		}()
	}
}

// Property: a table never holds more than sets*ways entries and an
// inserted key is immediately findable.
func TestTableProperty(t *testing.T) {
	f := func(keys []uint16) bool {
		tb := NewTable[uint16](4, 4)
		for _, k := range keys {
			tb.Insert(int(k%4), uint64(k), k)
			if v, ok := tb.Peek(int(k%4), uint64(k)); !ok || *v != k {
				return false
			}
			if tb.Len() > 16 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQueuePushPop(t *testing.T) {
	q := NewQueue(4, 1)
	q.Push(Request{VLine: 0x40, Level: LevelL1}, 10)
	req, at, ok := q.PopReady(10)
	if !ok || req.VLine != 0x40 || at != 10 {
		t.Fatalf("pop = %+v @%v ok=%v", req, at, ok)
	}
	if _, _, ok := q.PopReady(100); ok {
		t.Error("pop from empty queue succeeded")
	}
}

func TestQueueDrainRatePacing(t *testing.T) {
	q := NewQueue(16, 0.5) // one request per 2 cycles
	for i := 0; i < 4; i++ {
		q.Push(Request{VLine: uint64(i+1) * 64}, 0)
	}
	// At t=0 only the first is ready.
	var popped int
	for {
		if _, _, ok := q.PopReady(0); !ok {
			break
		}
		popped++
	}
	if popped != 1 {
		t.Errorf("popped %d at t=0, want 1", popped)
	}
	// By t=6 the rest are ready (slots at 2, 4, 6).
	for {
		if _, _, ok := q.PopReady(6); !ok {
			break
		}
		popped++
	}
	if popped != 4 {
		t.Errorf("popped %d by t=6, want 4", popped)
	}
}

func TestQueueFullDrops(t *testing.T) {
	q := NewQueue(2, 1)
	q.Push(Request{VLine: 64}, 0)
	q.Push(Request{VLine: 128}, 0)
	q.Push(Request{VLine: 192}, 0)
	if q.DropsFull != 1 {
		t.Errorf("DropsFull = %d, want 1", q.DropsFull)
	}
	if q.Len() != 2 {
		t.Errorf("Len = %d, want 2", q.Len())
	}
}

func TestQueueDupMergePromotesLevel(t *testing.T) {
	q := NewQueue(4, 1)
	q.Push(Request{VLine: 64, Level: LevelL2}, 0)
	q.Push(Request{VLine: 64, Level: LevelL1}, 0)
	if q.DropsDup != 1 {
		t.Errorf("DropsDup = %d, want 1", q.DropsDup)
	}
	req, _, _ := q.PopReady(10)
	if req.Level != LevelL1 {
		t.Errorf("merged level = %v, want L1", req.Level)
	}
	// And a weaker duplicate must not demote.
	q.Push(Request{VLine: 128, Level: LevelL1}, 0)
	q.Push(Request{VLine: 128, Level: LevelL2}, 0)
	req, _, _ = q.PopReady(10)
	if req.Level != LevelL1 {
		t.Errorf("level demoted to %v", req.Level)
	}
}

func TestQueueFIFOOrder(t *testing.T) {
	q := NewQueue(8, 8)
	for i := 1; i <= 5; i++ {
		q.Push(Request{VLine: uint64(i) * 64}, 0)
	}
	for i := 1; i <= 5; i++ {
		req, _, ok := q.PopReady(10)
		if !ok || req.VLine != uint64(i)*64 {
			t.Fatalf("pop %d = %+v ok=%v", i, req, ok)
		}
	}
}

func TestQueueFlush(t *testing.T) {
	q := NewQueue(8, 1)
	q.Push(Request{VLine: 64}, 0)
	q.Flush()
	if q.Len() != 0 {
		t.Error("queue not empty after flush")
	}
}

func TestLevelString(t *testing.T) {
	if LevelL1.String() != "L1" || LevelL2.String() != "L2" {
		t.Error("Level.String incorrect")
	}
}

func TestNilPrefetcher(t *testing.T) {
	var n Nil
	if n.Name() != "none" {
		t.Error("Nil name")
	}
	issued := 0
	n.Train(Access{}, func(Request) { issued++ })
	n.EvictNotify(0)
	if issued != 0 {
		t.Error("Nil issued a prefetch")
	}
}

func TestQueueRingWrap(t *testing.T) {
	q := NewQueue(4, 8)
	// Cycle pushes and pops well past the capacity so head wraps.
	next := uint64(64)
	for i := 0; i < 40; i++ {
		q.Push(Request{VLine: next}, float64(i))
		next += 64
		if i%2 == 1 {
			if _, _, ok := q.PopReady(float64(i) + 100); !ok {
				t.Fatalf("pop %d failed", i)
			}
		}
	}
	// FIFO must survive the wrapping: drain everything, in order.
	var prev uint64
	for q.Len() > 0 {
		req, _, ok := q.PopReady(1e9)
		if !ok {
			t.Fatal("queue non-empty but nothing ready")
		}
		if req.VLine <= prev {
			t.Fatalf("FIFO order broken: %#x after %#x", req.VLine, prev)
		}
		prev = req.VLine
	}
}

func TestQueueDupAfterWrap(t *testing.T) {
	q := NewQueue(2, 8)
	q.Push(Request{VLine: 64}, 0)
	q.Push(Request{VLine: 128}, 0)
	q.PopReady(100) // pops 64; head advanced
	q.Push(Request{VLine: 192}, 1)
	// 128 sits at a wrapped slot: its duplicate must still merge.
	q.Push(Request{VLine: 128, Level: LevelL1}, 2)
	if q.DropsDup != 1 {
		t.Fatalf("DropsDup = %d, want 1", q.DropsDup)
	}
	req, _, _ := q.PopReady(100)
	if req.VLine != 128 || req.Level != LevelL1 {
		t.Errorf("merged request = %+v, want vline 128 at L1", req)
	}
}

// TestRegionIndexDeletionChains drives the open-addressed index through
// colliding insert/remove sequences and cross-checks against a map.
func TestRegionIndexDeletionChains(t *testing.T) {
	idx := NewRegionIndex(32)
	ref := make(map[uint64]int)
	// A deterministic pseudo-random torture: keys drawn from a small
	// space force probe-chain collisions; interleaved removals exercise
	// backward-shift compaction, including wrapped segments.
	state := uint64(1)
	rnd := func(n uint64) uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return (state >> 33) % n
	}
	for i := 0; i < 5_000; i++ {
		key := rnd(64) * 64
		if _, ok := ref[key]; ok {
			if rnd(2) == 0 {
				idx.Remove(key)
				delete(ref, key)
			}
		} else if len(ref) < 32 {
			slot := int(rnd(1024))
			idx.Insert(key, slot)
			ref[key] = slot
		}
		probe := rnd(64) * 64
		got := idx.Lookup(probe)
		want, ok := ref[probe]
		if ok && got != want {
			t.Fatalf("step %d: Lookup(%#x) = %d, want %d", i, probe, got, want)
		}
		if !ok && got != -1 {
			t.Fatalf("step %d: Lookup(%#x) = %d, want absent", i, probe, got)
		}
	}
}

func TestPacerRingFIFOAndDedup(t *testing.T) {
	p := NewPacer(4, 2)
	for i := 1; i <= 6; i++ {
		p.Push(Request{VLine: uint64(i) * 64, Level: LevelL2})
	}
	if p.Dropped != 2 {
		t.Fatalf("Dropped = %d, want 2", p.Dropped)
	}
	p.Push(Request{VLine: 64, Level: LevelL1}) // dup upgrades level
	var got []Request
	issue := func(r Request) { got = append(got, r) }
	p.Drain(issue)
	p.Drain(issue)
	if len(got) != 4 {
		t.Fatalf("drained %d, want 4", len(got))
	}
	if got[0].VLine != 64 || got[0].Level != LevelL1 {
		t.Errorf("first drained = %+v, want upgraded vline 64", got[0])
	}
	for i := 1; i < len(got); i++ {
		if got[i].VLine != uint64(i+1)*64 {
			t.Errorf("drain order broken at %d: %+v", i, got[i])
		}
	}
	// After draining, re-pushing a previously seen line must not be
	// treated as a duplicate.
	p.Push(Request{VLine: 128, Level: LevelL2})
	if p.Len() != 1 {
		t.Errorf("re-push after drain: Len = %d, want 1", p.Len())
	}
}
