// Package cache implements the set-associative cache model used at every
// level of the simulated hierarchy (L1D, L2C, LLC).
//
// The model is timing-aware in a single-pass trace-driven style: each line
// carries a readyAt cycle stamp, so a fill issued at cycle t with latency d
// is visible immediately but costs a residual wait to any access arriving
// before t+d. That one mechanism models MSHR merging of demands and the
// paper's "late prefetch" definition ("a CPU access hits on an outstanding
// prefetch request") without a discrete event queue.
//
// Lines also carry a prefetch bit and a fill origin, which drive the
// paper's metrics: overall accuracy (§IV-A3) counts a prefetched line as
// useful on its first demand touch at the level the prefetch targeted and
// useless when evicted untouched; LLC coverage counts useful prefetches
// whose data came from DRAM.
//
// Storage is structure-of-arrays, sized for the simulation hot loop: tag
// words (validity folded in as tag+1, zero = invalid) and readiness times
// are each packed contiguously, so a 12-way tag scan touches two cache
// lines. Replacement and prefetch state live in one 16-byte setState per
// set: the exact LRU order as an internal/lru recency word, so a victim is
// read rather than searched for, and per-way prefetch bitmasks.
package cache

import (
	"fmt"
	"math/bits"

	"repro/internal/lru"
	"repro/internal/mem"
)

// Config describes one cache level.
type Config struct {
	// Name identifies the level in stats output ("L1D", "L2C", "LLC").
	Name string
	// Sets and Ways define the geometry; capacity = Sets*Ways*64B.
	Sets int
	Ways int
	// HitLatency is the access latency in CPU cycles.
	HitLatency float64
	// MSHRs bounds the number of outstanding misses. Zero disables the
	// bound (used by unit tests that only exercise placement).
	MSHRs int
}

// SizeBytes returns the cache capacity in bytes.
func (c Config) SizeBytes() int { return c.Sets * c.Ways * mem.LineSize }

// Validate reports configuration errors early instead of panicking deep in
// a simulation.
func (c Config) Validate() error {
	if c.Sets <= 0 || c.Sets&(c.Sets-1) != 0 {
		return fmt.Errorf("cache %s: sets must be a positive power of two, got %d", c.Name, c.Sets)
	}
	if c.Ways <= 0 || c.Ways > lru.MaxWays {
		return fmt.Errorf("cache %s: ways must be between 1 and %d, got %d", c.Name, lru.MaxWays, c.Ways)
	}
	if c.HitLatency < 0 {
		return fmt.Errorf("cache %s: negative hit latency", c.Name)
	}
	return nil
}

// setState is one set's replacement and prefetch state.
type setState struct {
	// order is the set's lru recency word. It starts as way 0 through
	// ways-1; lines are never invalidated and only filled or touched ways
	// move, so invalid ways stay at the LRU end in index order and the
	// victim is always "the first invalid way, else the LRU". pf and dram
	// have one bit per way, so lru.MaxWays also fits them.
	order uint64
	// pf marks, one bit per way, lines filled by a prefetch targeted at
	// this level and not yet touched by a demand access. dram marks
	// prefetch fills whose data came from DRAM (they would have been
	// off-chip misses); used for LLC coverage accounting.
	pf, dram uint16
}

// Stats accumulates per-level counters. The embedding simulator resets
// Stats at the warm-up boundary.
type Stats struct {
	DemandAccesses uint64
	DemandHits     uint64
	DemandMisses   uint64
	// PrefetchFills counts prefetch-targeted fills at this level.
	PrefetchFills uint64
	// UsefulPrefetches counts first demand touches of prefetched lines.
	UsefulPrefetches uint64
	// UselessPrefetches counts prefetched lines evicted untouched.
	UselessPrefetches uint64
	// LatePrefetches counts useful prefetches whose fill was still in
	// flight at first touch.
	LatePrefetches uint64
	// CoveredMisses counts useful prefetches that were served from DRAM,
	// i.e. demand misses this level would otherwise have sent off-chip.
	CoveredMisses uint64
}

// EvictFunc observes evictions: vline is the virtual line number recorded at
// fill time, wasPrefetch reports an untouched prefetched line.
type EvictFunc func(vline uint64, wasPrefetch bool)

// Cache is a set-associative, LRU, timing-annotated cache.
type Cache struct {
	cfg     Config
	ways    int
	setMask uint64
	// mruShift is the bit offset of the MRU nibble, 4*(ways-1).
	mruShift uint
	onEvict  EvictFunc

	// Structure-of-arrays line storage, Sets*Ways each: tags holds
	// lineNum+1 (0 = invalid way), ready the cycle each line's fill
	// completes.
	tags  []uint64
	ready []float64
	// sets holds each set's recency order and prefetch masks.
	sets []setState
	// vlines records each line's virtual line number for eviction
	// notifications. Only the L1 has an evict observer, so the array is
	// allocated by SetEvictFunc rather than carried (and zeroed, and
	// written per fill) by every level.
	vlines []uint64

	// mshrFree holds the release times of the MSHR slots as a sorted
	// ring (ascending from mshrHead; the ring is always exactly full):
	// MSHRReserve reads the earliest release at the head in O(1), and
	// MSHRComplete pops the head and inserts the finish time. A finish
	// at or past the current maximum — the overwhelmingly common case,
	// since a new completion usually lands after everything in flight —
	// is one compare and one store: the freed head slot becomes the new
	// tail. Slot identity is deliberately dropped: only the *multiset*
	// of release times ever reaches timing (start = max(now, min)), and
	// among equal minima any slot is interchangeable, so this is
	// bit-identical to the historical per-slot first-min scan.
	mshrFree []float64
	mshrHead int

	// pending is the fill hint: when a miss-detecting scan (Access,
	// Probe, ProbeTouch, PromotePrefetch) establishes that a line is
	// absent, it records the line's tag word and the victim way it read
	// in passing. A Fill for the same line can then skip its tag scan —
	// the simulator's miss paths always scan before filling. Every method
	// that reorders a set clears the hint, so a hint that survives to Fill
	// proves its victim is still the set's LRU way.
	pending struct {
		tag uint64 // lineNum+1, matching the tags array encoding; 0 = none
		way int
	}

	Stats Stats
}

// New constructs a cache; it panics on invalid configuration (construction
// happens at setup time where a panic is an acceptable failure mode, and
// Validate is available for callers that prefer errors).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := cfg.Sets * cfg.Ways
	c := &Cache{
		cfg:      cfg,
		ways:     cfg.Ways,
		setMask:  uint64(cfg.Sets - 1),
		mruShift: lru.MRUShift(cfg.Ways),
		tags:     make([]uint64, n),
		ready:    make([]float64, n),
		sets:     make([]setState, cfg.Sets),
	}
	order := lru.Init(cfg.Ways)
	for i := range c.sets {
		c.sets[i].order = order
	}
	if cfg.MSHRs > 0 {
		c.mshrFree = make([]float64, cfg.MSHRs)
	}
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// SetEvictFunc installs the eviction observer.
func (c *Cache) SetEvictFunc(f EvictFunc) {
	c.onEvict = f
	if f != nil && c.vlines == nil {
		c.vlines = make([]uint64, len(c.tags))
	}
}

// lookup scans the set of lineNum for the line. It returns the set's
// state and recency order, the index of the set's way 0 in the line
// arrays, and the way holding the line, or -1. The order is loaded before
// the tag scan, so a host cache miss on it overlaps the scan's instead of
// waiting for the scan's exit branch; every hit needs the order, and
// every miss records its victim in the fill hint.
func (c *Cache) lookup(lineNum uint64) (s *setState, order uint64, base, way int) {
	set := int(lineNum & c.setMask)
	s = &c.sets[set]
	order = s.order
	base = set * c.ways
	want := lineNum + 1
	for i, tg := range c.tags[base : base+c.ways] {
		if tg == want {
			return s, order, base, i
		}
	}
	return s, order, base, -1
}

// missWithHint records the fill hint for an absent line: its tag word
// and the victim a fill would take, the LRU way of its set's recency
// order.
func (c *Cache) missWithHint(lineNum, order uint64) {
	c.pending.tag = lineNum + 1
	c.pending.way = lru.Victim(order)
}

// promote moves way w of s, whose recency order is o, to the MRU end and
// clears the fill hint, whose victim may have moved.
func (c *Cache) promote(s *setState, o uint64, w int) {
	c.pending.tag = 0
	s.order = lru.Promote(o, w, c.mruShift)
}

// AccessResult reports the outcome of a demand access.
type AccessResult struct {
	Hit bool
	// ReadyAt is the cycle the data is available (>= access cycle when the
	// line was in flight).
	ReadyAt float64
	// WasPrefetch reports that this access was the first demand touch of a
	// prefetched line.
	WasPrefetch bool
	// WasLate reports a WasPrefetch touch that arrived before the fill
	// completed (the paper's late-prefetch definition).
	WasLate bool
}

// Access performs a demand lookup at cycle now. On a hit the LRU state is
// updated, the prefetch bit is consumed and usefulness counters advance;
// a miss leaves a fill hint for the fill that follows.
func (c *Cache) Access(paddr mem.Addr, now float64) AccessResult {
	ln := mem.LineNum(paddr)
	s, order, base, i := c.lookup(ln)
	c.Stats.DemandAccesses++
	if i < 0 {
		c.missWithHint(ln, order)
		c.Stats.DemandMisses++
		return AccessResult{}
	}
	c.Stats.DemandHits++
	c.promote(s, order, i)
	res := AccessResult{Hit: true, ReadyAt: c.ready[base+i]}
	if bit := uint16(1) << i; s.pf&bit != 0 {
		s.pf &^= bit
		c.Stats.UsefulPrefetches++
		res.WasPrefetch = true
		if res.ReadyAt > now {
			c.Stats.LatePrefetches++
			res.WasLate = true
		}
		if s.dram&bit != 0 {
			c.Stats.CoveredMisses++
		}
	}
	return res
}

// Probe reports whether the line is present without touching LRU, prefetch
// bits or statistics. Prefetch issue logic uses it for redundancy checks;
// a miss leaves a fill hint behind for the fill that typically follows.
func (c *Cache) Probe(paddr mem.Addr) bool {
	ln := mem.LineNum(paddr)
	_, order, _, i := c.lookup(ln)
	if i >= 0 {
		return true
	}
	c.missWithHint(ln, order)
	return false
}

// InFlight reports whether the line is present but its fill has not
// completed by cycle now (an outstanding request).
func (c *Cache) InFlight(paddr mem.Addr, now float64) bool {
	_, _, base, i := c.lookup(mem.LineNum(paddr))
	return i >= 0 && c.ready[base+i] > now
}

// FillOpts qualifies a Fill.
type FillOpts struct {
	// Prefetch marks a fill whose prefetch targeted this level.
	Prefetch bool
	// FromDRAM marks data served from DRAM.
	FromDRAM bool
	// VLine is the virtual line number, reported back on eviction.
	VLine uint64
}

// Fill inserts a line that becomes ready at readyAt, evicting the LRU
// victim if needed. Filling an already-present line refreshes its
// readiness only if the new fill completes earlier. When the pending fill
// hint names the line — the simulator's miss paths always scan (Access,
// Probe, ProbeTouch or PromotePrefetch) right before filling — the tag
// scan is skipped.
func (c *Cache) Fill(paddr mem.Addr, readyAt float64, opts FillOpts) {
	ln := mem.LineNum(paddr)
	set := int(ln & c.setMask)
	s, base := &c.sets[set], set*c.ways
	// A matching hint proves ln absent, and nothing reordered the set
	// since its scan, so its victim is still the LRU way.
	w := c.pending.way
	if c.pending.tag != ln+1 {
		_, order, _, i := c.lookup(ln)
		if i >= 0 {
			if readyAt < c.ready[base+i] {
				c.ready[base+i] = readyAt
			}
			// A demand fill of a line previously prefetched keeps the
			// prefetch bit: usefulness is decided by demand *access*.
			return
		}
		w = lru.Victim(order)
	}
	c.pending.tag = 0
	// The victim, the LRU way, moves to the MRU.
	s.order = lru.Rotate(s.order, c.mruShift)
	bit := uint16(1) << w
	line := base + w
	if c.tags[line] != 0 {
		wasPrefetch := s.pf&bit != 0
		if wasPrefetch {
			c.Stats.UselessPrefetches++
		}
		if c.onEvict != nil {
			c.onEvict(c.vlines[line], wasPrefetch)
		}
	}
	c.tags[line] = ln + 1
	c.ready[line] = readyAt
	if c.vlines != nil {
		c.vlines[line] = opts.VLine
	}
	s.pf &^= bit
	s.dram &^= bit
	if opts.Prefetch {
		s.pf |= bit
		if opts.FromDRAM {
			s.dram |= bit
		}
		c.Stats.PrefetchFills++
	}
}

// AcquireMSHR models MSHR occupancy for a miss issued at cycle now that
// completes at completion. It returns the cycle the request can actually
// start (>= now when all slots are busy).
func (c *Cache) AcquireMSHR(now, completion float64) float64 {
	start, slot := c.MSHRReserve(now)
	if slot >= 0 {
		c.MSHRComplete(slot, completion+(start-now))
	}
	return start
}

// MSHRReserve claims the earliest-available MSHR slot for a miss arriving
// at cycle now. It returns the cycle the request may start (>= now) and an
// opaque slot token; the caller must follow up with MSHRComplete — before
// any other reservation on this cache — once the finish time is known.
// With MSHRs disabled it returns (now, -1).
func (c *Cache) MSHRReserve(now float64) (start float64, slot int) {
	if c.mshrFree == nil {
		return now, -1
	}
	start = now
	if min := c.mshrFree[c.mshrHead]; min > start {
		start = min
	}
	return start, 0
}

// MSHRComplete releases the slot of the most recent reservation at cycle
// finish: the earliest release (which that reservation claimed) is
// dropped and finish takes its sorted position.
func (c *Cache) MSHRComplete(slot int, finish float64) {
	if slot < 0 || c.mshrFree == nil {
		return
	}
	h := c.mshrFree
	n := len(h)
	head := c.mshrHead
	tail := head - 1
	if tail < 0 {
		tail += n
	}
	if finish >= h[tail] {
		// New maximum: the popped head slot is exactly where the new
		// tail belongs.
		h[head] = finish
		head++
		if head == n {
			head = 0
		}
		c.mshrHead = head
		return
	}
	// Out-of-order finish: slide smaller successors into the popped
	// head's hole until the sorted position is found.
	i := head
	for {
		j := i + 1
		if j == n {
			j = 0
		}
		if j == head || h[j] >= finish {
			break
		}
		h[i] = h[j]
		i = j
	}
	h[i] = finish
}

// ConsumePrefetch clears a resident line's prefetch bit without counting
// it as used or useless, returning whether the bit was set and whether the
// line's data came from DRAM. A higher-level prefetch that is served from
// this level inherits the attribution: the paper's overall-accuracy metric
// counts each prefetched block once (§IV-A3).
func (c *Cache) ConsumePrefetch(paddr mem.Addr) (wasPrefetch, fromDRAM bool) {
	s, _, _, i := c.lookup(mem.LineNum(paddr))
	if i < 0 {
		return false, false
	}
	return c.consume(s, i)
}

// consume transfers way w's prefetch attribution (see ConsumePrefetch).
func (c *Cache) consume(s *setState, w int) (wasPrefetch, fromDRAM bool) {
	bit := uint16(1) << w
	wasPrefetch, fromDRAM = s.pf&bit != 0, s.dram&bit != 0
	if wasPrefetch {
		// Transfer: the fill at the level above re-registers it.
		c.Stats.PrefetchFills--
		s.pf &^= bit
		s.dram &^= bit
	}
	return wasPrefetch, fromDRAM
}

// PromotePrefetch is the fused Probe + Touch + ConsumePrefetch the
// prefetch-issue hot path uses when an L1-destined prefetch may be served
// from this level: one set scan reports residency, refreshes the line's
// LRU position, and transfers the prefetch attribution (see
// ConsumePrefetch); a miss leaves a fill hint behind.
func (c *Cache) PromotePrefetch(paddr mem.Addr) (present, wasPrefetch, fromDRAM bool) {
	ln := mem.LineNum(paddr)
	s, order, _, i := c.lookup(ln)
	if i < 0 {
		c.missWithHint(ln, order)
		return false, false, false
	}
	c.promote(s, order, i)
	wasPrefetch, fromDRAM = c.consume(s, i)
	return true, wasPrefetch, fromDRAM
}

// ProbeTouch is the fused Probe + Touch the prefetch-issue path uses for
// levels that may serve a prefetch without inheriting attribution (the
// LLC): one scan reports residency and refreshes the LRU position, and a
// miss leaves a fill hint behind.
func (c *Cache) ProbeTouch(paddr mem.Addr) bool {
	ln := mem.LineNum(paddr)
	s, order, _, i := c.lookup(ln)
	if i < 0 {
		c.missWithHint(ln, order)
		return false
	}
	c.promote(s, order, i)
	return true
}

// Touch refreshes a line's LRU position without affecting statistics or
// prefetch bits. The prefetch-issue path uses it when a prefetch is served
// by a lower level.
func (c *Cache) Touch(paddr mem.Addr) {
	if s, order, _, i := c.lookup(mem.LineNum(paddr)); i >= 0 {
		c.promote(s, order, i)
	}
}

// MSHRBusy reports how many MSHR slots are still held at cycle now. The
// DSPatch prefetcher uses it as its bandwidth-pressure proxy.
func (c *Cache) MSHRBusy(now float64) int {
	n := 0
	for _, t := range c.mshrFree {
		if t > now {
			n++
		}
	}
	return n
}

// FlushStats finalizes end-of-simulation accounting: every still-resident
// untouched prefetched line counts as useless (it never helped). A set
// bit in pf always names a valid line: lines are never invalidated.
func (c *Cache) FlushStats() {
	for i := range c.sets {
		c.Stats.UselessPrefetches += uint64(bits.OnesCount16(c.sets[i].pf))
		c.sets[i].pf = 0
	}
}

// ResetStats clears the statistics (used at the warm-up boundary) without
// disturbing cache contents.
func (c *Cache) ResetStats() { c.Stats = Stats{} }
