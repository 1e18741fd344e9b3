package cache

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

func testCfg(sets, ways int) Config {
	return Config{Name: "T", Sets: sets, Ways: ways, HitLatency: 4, MSHRs: 8}
}

func TestConfigValidate(t *testing.T) {
	for _, good := range []Config{testCfg(64, 8), testCfg(64, 16)} {
		if err := good.Validate(); err != nil {
			t.Errorf("valid config rejected: %v", err)
		}
	}
	bad := []Config{
		{Name: "a", Sets: 0, Ways: 1},
		{Name: "b", Sets: 3, Ways: 1},
		{Name: "c", Sets: 4, Ways: 0},
		{Name: "d", Sets: 4, Ways: 1, HitLatency: -1},
		{Name: "e", Sets: 4, Ways: 17},
	}
	for _, cfg := range bad {
		err := cfg.Validate()
		if err == nil {
			t.Errorf("invalid config %+v accepted", cfg)
		} else if !strings.Contains(err.Error(), "cache "+cfg.Name+":") {
			t.Errorf("error %q does not name level %s", err, cfg.Name)
		}
	}
}

func TestSizeBytes(t *testing.T) {
	cfg := Config{Sets: 64, Ways: 12}
	if cfg.SizeBytes() != 48*1024 {
		t.Errorf("SizeBytes = %d, want 49152", cfg.SizeBytes())
	}
}

func TestMissThenHit(t *testing.T) {
	c := New(testCfg(16, 4))
	a := mem.Addr(0x1000)
	if res := c.Access(a, 0); res.Hit {
		t.Fatal("cold access hit")
	}
	c.Fill(a, 10, FillOpts{})
	res := c.Access(a, 20)
	if !res.Hit {
		t.Fatal("filled line missed")
	}
	if res.ReadyAt != 10 {
		t.Errorf("ReadyAt = %v, want 10", res.ReadyAt)
	}
	if c.Stats.DemandAccesses != 2 || c.Stats.DemandHits != 1 || c.Stats.DemandMisses != 1 {
		t.Errorf("stats wrong: %+v", c.Stats)
	}
}

func TestSameLineDifferentBytes(t *testing.T) {
	c := New(testCfg(16, 4))
	c.Fill(0x1000, 0, FillOpts{})
	if !c.Access(0x103f, 1).Hit {
		t.Error("access within same line missed")
	}
	if c.Access(0x1040, 1).Hit {
		t.Error("next line hit unexpectedly")
	}
}

func TestLRUEviction(t *testing.T) {
	// Direct-mapped-per-set behaviour: 1 set, 2 ways.
	c := New(Config{Name: "T", Sets: 1, Ways: 2, HitLatency: 1})
	c.Fill(0x0000, 0, FillOpts{})
	c.Fill(0x0040, 0, FillOpts{})
	// Touch line 0 so line 1 becomes LRU.
	c.Access(0x0000, 1)
	c.Fill(0x0080, 2, FillOpts{})
	if !c.Probe(0x0000) {
		t.Error("MRU line evicted")
	}
	if c.Probe(0x0040) {
		t.Error("LRU line survived")
	}
	if !c.Probe(0x0080) {
		t.Error("new line absent")
	}
}

func TestEvictCallback(t *testing.T) {
	c := New(Config{Name: "T", Sets: 1, Ways: 1, HitLatency: 1})
	var evicted []uint64
	var prefFlags []bool
	c.SetEvictFunc(func(vline uint64, wasPrefetch bool) {
		evicted = append(evicted, vline)
		prefFlags = append(prefFlags, wasPrefetch)
	})
	c.Fill(0x0000, 0, FillOpts{VLine: 111, Prefetch: true})
	c.Fill(0x0040, 0, FillOpts{VLine: 222})
	c.Fill(0x0080, 0, FillOpts{VLine: 333})
	if len(evicted) != 2 || evicted[0] != 111 || evicted[1] != 222 {
		t.Fatalf("evictions = %v", evicted)
	}
	if !prefFlags[0] || prefFlags[1] {
		t.Errorf("prefetch flags = %v", prefFlags)
	}
}

func TestPrefetchUsefulAccounting(t *testing.T) {
	c := New(testCfg(16, 4))
	c.Fill(0x1000, 5, FillOpts{Prefetch: true, FromDRAM: true})
	if c.Stats.PrefetchFills != 1 {
		t.Fatalf("PrefetchFills = %d", c.Stats.PrefetchFills)
	}
	res := c.Access(0x1000, 10) // after fill completes: useful, not late
	if !res.WasPrefetch || res.WasLate {
		t.Errorf("result = %+v, want useful & on-time", res)
	}
	if c.Stats.UsefulPrefetches != 1 || c.Stats.LatePrefetches != 0 {
		t.Errorf("stats = %+v", c.Stats)
	}
	if c.Stats.CoveredMisses != 1 {
		t.Errorf("CoveredMisses = %d, want 1", c.Stats.CoveredMisses)
	}
	// Second touch is an ordinary hit.
	res = c.Access(0x1000, 11)
	if res.WasPrefetch {
		t.Error("second touch still counted as prefetch use")
	}
	if c.Stats.UsefulPrefetches != 1 {
		t.Errorf("UsefulPrefetches double-counted: %d", c.Stats.UsefulPrefetches)
	}
}

func TestLatePrefetch(t *testing.T) {
	c := New(testCfg(16, 4))
	c.Fill(0x2000, 100, FillOpts{Prefetch: true})
	res := c.Access(0x2000, 50) // touch while in flight
	if !res.Hit || !res.WasPrefetch || !res.WasLate {
		t.Errorf("result = %+v, want late useful prefetch", res)
	}
	if res.ReadyAt != 100 {
		t.Errorf("ReadyAt = %v", res.ReadyAt)
	}
	if c.Stats.LatePrefetches != 1 || c.Stats.UsefulPrefetches != 1 {
		t.Errorf("stats = %+v", c.Stats)
	}
}

func TestUselessPrefetchOnEviction(t *testing.T) {
	c := New(Config{Name: "T", Sets: 1, Ways: 1, HitLatency: 1})
	c.Fill(0x0000, 0, FillOpts{Prefetch: true})
	c.Fill(0x0040, 0, FillOpts{}) // evicts untouched prefetch
	if c.Stats.UselessPrefetches != 1 {
		t.Errorf("UselessPrefetches = %d, want 1", c.Stats.UselessPrefetches)
	}
}

func TestFlushStatsCountsResidentUnused(t *testing.T) {
	c := New(testCfg(16, 4))
	c.Fill(0x1000, 0, FillOpts{Prefetch: true})
	c.Fill(0x2000, 0, FillOpts{Prefetch: true})
	c.Access(0x1000, 1)
	c.FlushStats()
	if c.Stats.UselessPrefetches != 1 {
		t.Errorf("UselessPrefetches = %d, want 1", c.Stats.UselessPrefetches)
	}
	if c.Stats.UsefulPrefetches != 1 {
		t.Errorf("UsefulPrefetches = %d, want 1", c.Stats.UsefulPrefetches)
	}
}

func TestRefillKeepsEarliestReady(t *testing.T) {
	c := New(testCfg(16, 4))
	c.Fill(0x1000, 100, FillOpts{})
	c.Fill(0x1000, 50, FillOpts{})
	if res := c.Access(0x1000, 0); res.ReadyAt != 50 {
		t.Errorf("ReadyAt = %v, want 50", res.ReadyAt)
	}
	c.Fill(0x1000, 80, FillOpts{})
	// Later fill must not push readiness back out.
	// (The line was accessed at t=0, so re-access to check.)
	if res := c.Access(0x1000, 0); res.ReadyAt != 50 {
		t.Errorf("ReadyAt after worse refill = %v, want 50", res.ReadyAt)
	}
}

func TestInFlight(t *testing.T) {
	c := New(testCfg(16, 4))
	c.Fill(0x1000, 100, FillOpts{})
	if !c.InFlight(0x1000, 50) {
		t.Error("line should be in flight at t=50")
	}
	if c.InFlight(0x1000, 150) {
		t.Error("line should be complete at t=150")
	}
	if c.InFlight(0x9000, 0) {
		t.Error("absent line reported in flight")
	}
}

func TestProbeDoesNotDisturbState(t *testing.T) {
	c := New(Config{Name: "T", Sets: 1, Ways: 2, HitLatency: 1})
	c.Fill(0x0000, 0, FillOpts{Prefetch: true})
	c.Fill(0x0040, 0, FillOpts{})
	before := c.Stats
	if !c.Probe(0x0000) {
		t.Fatal("probe missed resident line")
	}
	if c.Stats != before {
		t.Error("Probe changed statistics")
	}
	// Probe must not refresh LRU: 0x0000 stays older... fill order made
	// 0x0000 LRU; a new fill must evict it despite the probe.
	c.Fill(0x0080, 0, FillOpts{})
	if c.Probe(0x0000) {
		t.Error("Probe refreshed LRU state")
	}
	// And the prefetch bit was untouched by Probe, so eviction counted it.
	if c.Stats.UselessPrefetches != 1 {
		t.Errorf("UselessPrefetches = %d, want 1", c.Stats.UselessPrefetches)
	}
}

func TestMSHRSerialization(t *testing.T) {
	c := New(Config{Name: "T", Sets: 16, Ways: 4, HitLatency: 1, MSHRs: 2})
	// Two misses fit; the third must wait for the first to complete.
	s1 := c.AcquireMSHR(0, 100)
	s2 := c.AcquireMSHR(0, 100)
	s3 := c.AcquireMSHR(0, 100)
	if s1 != 0 || s2 != 0 {
		t.Errorf("first two starts = %v, %v; want 0,0", s1, s2)
	}
	if s3 != 100 {
		t.Errorf("third start = %v, want 100", s3)
	}
}

func TestMSHRUnlimitedWhenZero(t *testing.T) {
	c := New(Config{Name: "T", Sets: 16, Ways: 4, HitLatency: 1})
	for i := 0; i < 100; i++ {
		if s := c.AcquireMSHR(5, 1000); s != 5 {
			t.Fatalf("unbounded MSHR delayed request: %v", s)
		}
	}
}

func TestMSHRBusyCount(t *testing.T) {
	c := New(Config{Name: "T", Sets: 16, Ways: 4, HitLatency: 1, MSHRs: 4})
	c.AcquireMSHR(0, 100)
	c.AcquireMSHR(0, 50)
	if n := c.MSHRBusy(10); n != 2 {
		t.Errorf("busy at t=10: %d, want 2", n)
	}
	if n := c.MSHRBusy(75); n != 1 {
		t.Errorf("busy at t=75: %d, want 1", n)
	}
	if n := c.MSHRBusy(200); n != 0 {
		t.Errorf("busy at t=200: %d, want 0", n)
	}
}

func TestResetStatsKeepsContents(t *testing.T) {
	c := New(testCfg(16, 4))
	c.Fill(0x1000, 0, FillOpts{})
	c.Access(0x1000, 1)
	c.ResetStats()
	if c.Stats.DemandAccesses != 0 {
		t.Error("stats not reset")
	}
	if !c.Probe(0x1000) {
		t.Error("contents lost on stats reset")
	}
}

// Property: the cache never exceeds its capacity and presence implies a
// prior fill that has not been evicted by associativity pressure.
func TestPropertyNoPhantomLines(t *testing.T) {
	f := func(addrs []uint32) bool {
		c := New(Config{Name: "T", Sets: 4, Ways: 2, HitLatency: 1})
		filled := make(map[uint64]bool)
		for _, a := range addrs {
			addr := mem.Addr(a) &^ (mem.LineSize - 1)
			c.Fill(addr, 0, FillOpts{})
			filled[mem.LineNum(addr)] = true
		}
		// Anything probed present must have been filled at some point.
		for _, a := range addrs {
			addr := mem.Addr(a)
			if c.Probe(addr) && !filled[mem.LineNum(addr)] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: hits and misses partition demand accesses.
func TestPropertyStatsPartition(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := New(testCfg(8, 2))
		for i, a := range addrs {
			addr := mem.Addr(a) << 6
			if i%3 == 0 {
				c.Fill(addr, float64(i), FillOpts{})
			} else {
				c.Access(addr, float64(i))
			}
		}
		return c.Stats.DemandAccesses == c.Stats.DemandHits+c.Stats.DemandMisses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestMSHROutOfOrderCompletion exercises the sorted-ring insert path:
// completions that finish earlier than older in-flight requests must
// keep the earliest-release invariant exact.
func TestMSHROutOfOrderCompletion(t *testing.T) {
	c := New(Config{Name: "T", Sets: 16, Ways: 4, HitLatency: 1, MSHRs: 3})
	complete := func(finish float64) {
		_, slot := c.MSHRReserve(0)
		c.MSHRComplete(slot, finish)
	}
	// Occupy all three slots with descending finish times: each insert
	// lands ahead of the previously queued releases (the slow path).
	complete(300)
	complete(200)
	complete(50) // releases {50, 200, 300}
	if s, _ := c.MSHRReserve(0); s != 50 {
		t.Fatalf("earliest release = %v, want 50", s)
	}
	// Replace the 50 with a mid-range finish: releases {120, 200, 300}.
	complete(120)
	if s, _ := c.MSHRReserve(0); s != 120 {
		t.Fatalf("earliest release = %v, want 120", s)
	}
	// Replace the 120 with a new maximum (fast path): {200, 300, 400}.
	complete(400)
	if s, _ := c.MSHRReserve(150); s != 200 {
		t.Fatalf("start at t=150 = %v, want 200", s)
	}
	if s, _ := c.MSHRReserve(250); s != 250 {
		t.Fatalf("start at t=250 = %v, want 250 (slot free since 200)", s)
	}
}

// TestMSHRBusyAfterReordering pins MSHRBusy against the ring layout.
func TestMSHRBusyAfterReordering(t *testing.T) {
	c := New(Config{Name: "T", Sets: 16, Ways: 4, HitLatency: 1, MSHRs: 4})
	c.AcquireMSHR(0, 300)
	c.AcquireMSHR(0, 50) // out of order: earlier than 300
	c.AcquireMSHR(0, 200)
	if n := c.MSHRBusy(100); n != 2 {
		t.Errorf("busy at t=100: %d, want 2 (200 and 300)", n)
	}
	if n := c.MSHRBusy(250); n != 1 {
		t.Errorf("busy at t=250: %d, want 1", n)
	}
}

// TestPromotePrefetchMatchesUnfusedSequence runs the fused call and the
// historical Probe+Touch+ConsumePrefetch sequence on twin caches and
// requires identical observable state.
func TestPromotePrefetchMatchesUnfusedSequence(t *testing.T) {
	build := func() *Cache {
		c := New(testCfg(4, 2))
		c.Fill(0x1000, 5, FillOpts{Prefetch: true, FromDRAM: true, VLine: 0x1000})
		c.Fill(0x2000, 6, FillOpts{})
		return c
	}
	fused, unfused := build(), build()

	p, was, dram := fused.PromotePrefetch(0x1000)
	present := unfused.Probe(0x1000)
	unfused.Touch(0x1000)
	uwas, udram := unfused.ConsumePrefetch(0x1000)
	if !p || !present || was != uwas || dram != udram {
		t.Fatalf("fused = (%v,%v,%v), unfused = (%v,%v,%v)",
			p, was, dram, present, uwas, udram)
	}
	if fused.Stats != unfused.Stats {
		t.Errorf("stats diverged: %+v vs %+v", fused.Stats, unfused.Stats)
	}
	// Absent line: both report absence and leave stats alone.
	if p, _, _ := fused.PromotePrefetch(0x9000); p {
		t.Error("PromotePrefetch claimed an absent line present")
	}
	// A second promote must not double-consume.
	if _, was, _ := fused.PromotePrefetch(0x1000); was {
		t.Error("prefetch bit consumed twice")
	}
}

// TestProbeTouchRefreshesLRU verifies the fused probe+touch keeps a line
// resident under fills that would otherwise evict it.
func TestProbeTouchRefreshesLRU(t *testing.T) {
	c := New(testCfg(1, 2))
	c.Fill(0x0000, 0, FillOpts{})
	c.Fill(0x0040, 0, FillOpts{})
	if !c.ProbeTouch(0x0000) { // refresh the older line
		t.Fatal("resident line reported absent")
	}
	c.Fill(0x0080, 0, FillOpts{}) // must evict 0x0040, the LRU now
	if !c.Probe(0x0000) {
		t.Error("touched line was evicted")
	}
	if c.Probe(0x0040) {
		t.Error("LRU line survived the fill")
	}
	if c.ProbeTouch(0x1FC0) {
		t.Error("ProbeTouch claimed an absent line present")
	}
}

// refLine is one line of the reference model.
type refLine struct {
	tag      uint64 // lineNum+1; 0 = invalid
	stamp    uint64
	ready    float64
	pf, dram bool
	vline    uint64
}

// evictEvent is one eviction notification.
type evictEvent struct {
	vline       uint64
	wasPrefetch bool
}

// refCache is the reference model Cache is held to: the plain stamp LRU.
// Every recency update stamps the line from a never-wrapping,
// pre-incremented clock, and a fill of an absent line evicts the way with
// the smallest stamp, the first among ties. Invalid ways keep stamp 0, so
// that is the first invalid way, else the LRU. The model keeps no fill
// hint and no packed state: it is the specification the cache's layout
// must reproduce.
type refCache struct {
	ways    int
	setMask uint64
	clock   uint64
	lines   []refLine
	stats   Stats
	evicted []evictEvent
}

func newRefCache(sets, ways int) *refCache {
	return &refCache{ways: ways, setMask: uint64(sets - 1), lines: make([]refLine, sets*ways)}
}

func (r *refCache) set(ln uint64) []refLine {
	base := int(ln&r.setMask) * r.ways
	return r.lines[base : base+r.ways]
}

func (r *refCache) find(paddr mem.Addr) *refLine {
	ln := mem.LineNum(paddr)
	set := r.set(ln)
	for i := range set {
		if set[i].tag == ln+1 {
			return &set[i]
		}
	}
	return nil
}

func (r *refCache) touch(l *refLine) {
	r.clock++
	l.stamp = r.clock
}

func (r *refCache) Access(paddr mem.Addr, now float64) AccessResult {
	r.stats.DemandAccesses++
	l := r.find(paddr)
	if l == nil {
		r.stats.DemandMisses++
		return AccessResult{}
	}
	r.stats.DemandHits++
	r.touch(l)
	res := AccessResult{Hit: true, ReadyAt: l.ready}
	if l.pf {
		l.pf = false
		r.stats.UsefulPrefetches++
		res.WasPrefetch = true
		if l.ready > now {
			r.stats.LatePrefetches++
			res.WasLate = true
		}
		if l.dram {
			r.stats.CoveredMisses++
		}
	}
	return res
}

func (r *refCache) Probe(paddr mem.Addr) bool { return r.find(paddr) != nil }

func (r *refCache) InFlight(paddr mem.Addr, now float64) bool {
	l := r.find(paddr)
	return l != nil && l.ready > now
}

func (r *refCache) Fill(paddr mem.Addr, readyAt float64, opts FillOpts) {
	if l := r.find(paddr); l != nil {
		if readyAt < l.ready {
			l.ready = readyAt
		}
		return
	}
	ln := mem.LineNum(paddr)
	set := r.set(ln)
	v := 0
	for i := range set {
		if set[i].stamp < set[v].stamp {
			v = i
		}
	}
	if set[v].tag != 0 {
		if set[v].pf {
			r.stats.UselessPrefetches++
		}
		r.evicted = append(r.evicted, evictEvent{set[v].vline, set[v].pf})
	}
	set[v] = refLine{
		tag:   ln + 1,
		ready: readyAt,
		pf:    opts.Prefetch,
		dram:  opts.FromDRAM && opts.Prefetch,
		vline: opts.VLine,
	}
	r.touch(&set[v])
	if opts.Prefetch {
		r.stats.PrefetchFills++
	}
}

func (r *refCache) consume(l *refLine) (wasPrefetch, fromDRAM bool) {
	wasPrefetch, fromDRAM = l.pf, l.dram
	if l.pf {
		r.stats.PrefetchFills--
		l.pf, l.dram = false, false
	}
	return wasPrefetch, fromDRAM
}

func (r *refCache) ConsumePrefetch(paddr mem.Addr) (wasPrefetch, fromDRAM bool) {
	if l := r.find(paddr); l != nil {
		return r.consume(l)
	}
	return false, false
}

func (r *refCache) PromotePrefetch(paddr mem.Addr) (present, wasPrefetch, fromDRAM bool) {
	l := r.find(paddr)
	if l == nil {
		return false, false, false
	}
	r.touch(l)
	wasPrefetch, fromDRAM = r.consume(l)
	return true, wasPrefetch, fromDRAM
}

func (r *refCache) ProbeTouch(paddr mem.Addr) bool {
	l := r.find(paddr)
	if l != nil {
		r.touch(l)
	}
	return l != nil
}

func (r *refCache) Touch(paddr mem.Addr) {
	if l := r.find(paddr); l != nil {
		r.touch(l)
	}
}

func (r *refCache) FlushStats() {
	for i := range r.lines {
		if r.lines[i].tag != 0 && r.lines[i].pf {
			r.stats.UselessPrefetches++
			r.lines[i].pf = false
		}
	}
}

// The operation alphabet of diffCache. A hinted fill runs one of the four
// miss-detecting scans on a line and fills the same line straight after,
// which is how the simulator's miss paths use the fill hint; a plain fill
// follows whatever operation came before.
const (
	opAccess = iota
	opProbe
	opProbeTouch
	opPromote
	opTouch
	opConsume
	opInFlight
	opFill
	opHintedFill
	opFlush
	numOps
)

// diffCache replays ops on a Cache and on the reference model, three bytes
// per operation (kind, line, argument), and describes the first operation
// after which their results, statistics or evictions differ; it returns ""
// when they agree throughout. Lines come from a pool about twice the
// cache's capacity, so sequences mix hits, misses and evictions.
func diffCache(sets, ways int, ops []byte) string {
	c := New(Config{Name: "T", Sets: sets, Ways: ways, HitLatency: 1})
	var got []evictEvent
	c.SetEvictFunc(func(vline uint64, wasPrefetch bool) {
		got = append(got, evictEvent{vline, wasPrefetch})
	})
	ref := newRefCache(sets, ways)
	pool := 2*sets*ways + 1
	for n := 0; n+3 <= len(ops); n += 3 {
		kind, arg := int(ops[n])%numOps, ops[n+2]
		addr := mem.Addr(int(ops[n+1])%pool) << 6
		now := float64(arg)
		opts := FillOpts{Prefetch: arg&1 != 0, FromDRAM: arg&2 != 0, VLine: uint64(n)}
		var cr, rr any
		switch kind {
		case opAccess:
			cr, rr = c.Access(addr, now), ref.Access(addr, now)
		case opProbe:
			cr, rr = c.Probe(addr), ref.Probe(addr)
		case opProbeTouch:
			cr, rr = c.ProbeTouch(addr), ref.ProbeTouch(addr)
		case opPromote:
			p, w, d := c.PromotePrefetch(addr)
			rp, rw, rd := ref.PromotePrefetch(addr)
			cr, rr = [3]bool{p, w, d}, [3]bool{rp, rw, rd}
		case opTouch:
			c.Touch(addr)
			ref.Touch(addr)
		case opConsume:
			w, d := c.ConsumePrefetch(addr)
			rw, rd := ref.ConsumePrefetch(addr)
			cr, rr = [2]bool{w, d}, [2]bool{rw, rd}
		case opInFlight:
			cr, rr = c.InFlight(addr, now), ref.InFlight(addr, now)
		case opFill:
			c.Fill(addr, now, opts)
			ref.Fill(addr, now, opts)
		case opHintedFill:
			switch arg >> 2 & 3 {
			case 0:
				cr, rr = c.Access(addr, now), ref.Access(addr, now)
			case 1:
				cr, rr = c.Probe(addr), ref.Probe(addr)
			case 2:
				cr, rr = c.ProbeTouch(addr), ref.ProbeTouch(addr)
			case 3:
				p, w, d := c.PromotePrefetch(addr)
				rp, rw, rd := ref.PromotePrefetch(addr)
				cr, rr = [3]bool{p, w, d}, [3]bool{rp, rw, rd}
			}
			c.Fill(addr, now, opts)
			ref.Fill(addr, now, opts)
		case opFlush:
			c.FlushStats()
			ref.FlushStats()
		}
		switch {
		case cr != rr:
			return fmt.Sprintf("op %d (kind %d, addr %#x): result %+v, reference %+v", n/3, kind, addr, cr, rr)
		case c.Stats != ref.stats:
			return fmt.Sprintf("op %d (kind %d, addr %#x): stats %+v, reference %+v", n/3, kind, addr, c.Stats, ref.stats)
		case !slices.Equal(got, ref.evicted):
			return fmt.Sprintf("op %d (kind %d, addr %#x): %d evictions ending %v, reference %d ending %v",
				n/3, kind, addr, len(got), got[max(0, len(got)-2):], len(ref.evicted), ref.evicted[max(0, len(ref.evicted)-2):])
		}
	}
	return ""
}

// TestCacheMatchesReference drives Cache and the stamp-LRU reference
// model with seeded random operation sequences over every supported
// associativity class and small set counts.
func TestCacheMatchesReference(t *testing.T) {
	for _, ways := range []int{1, 2, 4, 8, 12, 16} {
		for _, sets := range []int{1, 2, 4} {
			for seed := uint64(1); seed <= 4; seed++ {
				rng := rand.New(rand.NewPCG(seed, uint64(ways*sets)))
				ops := make([]byte, 3*3000)
				for i := range ops {
					ops[i] = byte(rng.Uint32())
				}
				if d := diffCache(sets, ways, ops); d != "" {
					t.Fatalf("ways=%d sets=%d seed=%d: %s", ways, sets, seed, d)
				}
			}
		}
	}
}

// FuzzCacheMatchesReference is TestCacheMatchesReference with the
// geometry and the operation sequence read from the fuzz input: byte 0
// picks 1–16 ways, byte 1 picks 1, 2 or 4 sets, and the rest are
// operations.
func FuzzCacheMatchesReference(f *testing.F) {
	f.Add([]byte{11, 0, opFill, 1, 1, opFill, 2, 0, opAccess, 1, 9, opFlush, 0, 0})
	f.Add([]byte{15, 2, opHintedFill, 3, 5, opPromote, 3, 0, opHintedFill, 40, 12, opTouch, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		ways, sets := 1+int(data[0])%16, 1<<(int(data[1])%3)
		if d := diffCache(sets, ways, data[2:]); d != "" {
			t.Fatalf("ways=%d sets=%d: %s", ways, sets, d)
		}
	})
}
