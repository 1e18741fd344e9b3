package core

import (
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/prefetch"
)

// collect gathers issued requests.
type collect struct{ reqs []prefetch.Request }

func (c *collect) issue(r prefetch.Request) { c.reqs = append(c.reqs, r) }

func (c *collect) lines() map[uint64]prefetch.Level {
	m := make(map[uint64]prefetch.Level)
	for _, r := range c.reqs {
		m[r.VLine] = r.Level
	}
	return m
}

// access sends one load at (page, off) with the given PC.
func access(g *Gaze, c *collect, pc uint64, page uint64, off int) {
	g.Train(prefetch.Access{
		PC:    pc,
		VAddr: page*mem.PageSize + uint64(off)*mem.LineSize,
	}, c.issue)
}

// runRegion plays a full footprint (order of offsets) on a page.
func runRegion(g *Gaze, c *collect, pc uint64, page uint64, order []int) {
	for _, off := range order {
		access(g, c, pc, page, off)
	}
}

// drainAll flushes the PB completely via idle accesses to a throwaway page.
func drainAll(g *Gaze, c *collect) {
	for i := 0; i < 64; i++ {
		access(g, c, 0x999, 0xdead00+uint64(i), 7)
	}
}

func TestOneBitPatternsFiltered(t *testing.T) {
	g := NewDefault()
	c := &collect{}
	// Touch 100 regions once each: all stay in FT, nothing learned,
	// nothing prefetched.
	for p := uint64(0); p < 100; p++ {
		access(g, c, 0x100, 0x1000+p, 5)
	}
	if got := g.InternalStats().RegionsTracked; got != 0 {
		t.Errorf("RegionsTracked = %d, want 0 (FT must filter)", got)
	}
	if len(c.reqs) != 0 {
		t.Errorf("issued %d prefetches from one-bit regions", len(c.reqs))
	}
}

func TestSecondAccessPromotesToAT(t *testing.T) {
	g := NewDefault()
	c := &collect{}
	access(g, c, 0x100, 0x1000, 5)
	access(g, c, 0x100, 0x1000, 5) // same block: still filtered
	if g.InternalStats().RegionsTracked != 0 {
		t.Error("same-block repeat promoted region")
	}
	access(g, c, 0x100, 0x1000, 9) // second distinct block
	if g.InternalStats().RegionsTracked != 1 {
		t.Error("second distinct access did not promote region to AT")
	}
}

func TestPatternLearnAndPredict(t *testing.T) {
	g := NewDefault()
	c := &collect{}
	order := []int{5, 9, 12, 20, 33}
	// Teach the pattern on one page, deactivate via eviction notify.
	runRegion(g, c, 0x100, 0x1000, order)
	g.EvictNotify(0x1000 * mem.PageSize)
	if g.InternalStats().RegionsLearned != 1 {
		t.Fatalf("RegionsLearned = %d", g.InternalStats().RegionsLearned)
	}

	// New page, same first two accesses: must hit the PHT and prefetch
	// the remembered blocks (12, 20, 33) to L1.
	c2 := &collect{}
	access(g, c2, 0x100, 0x2000, 5)
	access(g, c2, 0x100, 0x2000, 9)
	drainAll(g, c2)
	if g.InternalStats().PHTHits != 1 {
		t.Fatalf("PHTHits = %d, want 1", g.InternalStats().PHTHits)
	}
	got := c2.lines()
	for _, off := range []int{12, 20, 33} {
		want := uint64(0x2000)*mem.PageSize + uint64(off)*mem.LineSize
		if lvl, ok := got[want]; !ok || lvl != prefetch.LevelL1 {
			t.Errorf("block %d not prefetched to L1 (got %v, present=%v)", off, lvl, ok)
		}
	}
	// The two demanded blocks must not be prefetched.
	for _, off := range []int{5, 9} {
		bad := uint64(0x2000)*mem.PageSize + uint64(off)*mem.LineSize
		if _, ok := got[bad]; ok {
			t.Errorf("demanded block %d was prefetched", off)
		}
	}
}

func TestStrictMatchingRejectsPartialMatch(t *testing.T) {
	g := NewDefault()
	c := &collect{}
	runRegion(g, c, 0x100, 0x1000, []int{5, 9, 12, 20})
	g.EvictNotify(0x1000 * mem.PageSize)

	// Same trigger, different second: strict matching must NOT fire.
	c2 := &collect{}
	access(g, c2, 0x100, 0x3000, 5)
	access(g, c2, 0x100, 0x3000, 30)
	drainAll(g, c2)
	if g.InternalStats().PHTHits != 0 {
		t.Error("partial match produced a PHT hit (strict matching violated)")
	}
	for line := range c2.lines() {
		if mem.PageNum(mem.Addr(line)) == 0x3000 {
			t.Errorf("prefetch issued for unmatched region: line %#x", line)
		}
	}
}

func TestTemporalOrderDistinguishesPatterns(t *testing.T) {
	// Two patterns share footprint {5,9,...} but differ in the order of
	// the first two accesses: (5,9,...) vs (9,5,...). Gaze must keep them
	// apart — this is the paper's central claim.
	g := NewDefault()
	c := &collect{}
	runRegion(g, c, 0x100, 0x1000, []int{5, 9, 12, 20})
	g.EvictNotify(0x1000 * mem.PageSize)
	runRegion(g, c, 0x100, 0x1001, []int{9, 5, 40, 50})
	g.EvictNotify(0x1001 * mem.PageSize)

	// Replay order (9,5): must predict {40,50}, not {12,20}.
	c2 := &collect{}
	access(g, c2, 0x100, 0x4000, 9)
	access(g, c2, 0x100, 0x4000, 5)
	drainAll(g, c2)
	got := c2.lines()
	base := uint64(0x4000) * mem.PageSize
	for _, off := range []int{40, 50} {
		if _, ok := got[base+uint64(off)*mem.LineSize]; !ok {
			t.Errorf("order-matched block %d not prefetched", off)
		}
	}
	for _, off := range []int{12, 20} {
		if _, ok := got[base+uint64(off)*mem.LineSize]; ok {
			t.Errorf("wrong-order block %d prefetched", off)
		}
	}
}

// teachDense saturates the dense counter by streaming full regions.
func teachDense(g *Gaze, c *collect, pc uint64, firstPage uint64, n int) {
	for p := 0; p < n; p++ {
		page := firstPage + uint64(p)
		runRegion(g, c, pc, page, sequentialOrderTest(0, 63))
		g.EvictNotify(page * mem.PageSize)
	}
}

func sequentialOrderTest(a, b int) []int {
	out := make([]int, 0, b-a+1)
	for i := a; i <= b; i++ {
		out = append(out, i)
	}
	return out
}

func TestStreamingTwoStageAggressiveness(t *testing.T) {
	g := NewDefault()
	c := &collect{}
	teachDense(g, c, 0x200, 0x10000, 10)
	if g.InternalStats().DenseLearned < 8 {
		t.Fatalf("DenseLearned = %d", g.InternalStats().DenseLearned)
	}

	// A fresh streaming start must now trigger stage-1 full confidence:
	// head blocks to L1, the rest to L2.
	fullBefore := g.InternalStats().Stage1Full
	c2 := &collect{}
	access(g, c2, 0x200, 0x20000, 0)
	access(g, c2, 0x200, 0x20000, 1)
	for i := 0; i < 40; i++ { // drain PB
		access(g, c2, 0x999, 0xeeee00+uint64(i), 7)
	}
	got := c2.lines()
	base := uint64(0x20000) * mem.PageSize
	l1, l2 := 0, 0
	for off := 0; off < 64; off++ {
		lvl, ok := got[base+uint64(off)*mem.LineSize]
		if !ok {
			continue
		}
		if lvl == prefetch.LevelL1 {
			l1++
			if off >= 16 {
				t.Errorf("block %d beyond the first quarter went to L1", off)
			}
		} else {
			l2++
			if off < 16 {
				t.Errorf("head block %d went to L2", off)
			}
		}
	}
	if l1 == 0 || l2 == 0 {
		t.Errorf("stage 1 split missing: l1=%d l2=%d", l1, l2)
	}
	if got := g.InternalStats().Stage1Full - fullBefore; got != 1 {
		t.Errorf("Stage1Full delta = %d, want 1", got)
	}
}

func TestStreamingNoConfidenceNoPrefetch(t *testing.T) {
	g := NewDefault()
	c := &collect{}
	// Cold DC, unknown PC: a (0,1) start must not prefetch.
	access(g, c, 0x300, 0x5000, 0)
	access(g, c, 0x300, 0x5000, 1)
	drainAll(g, c)
	for line := range c.lines() {
		if mem.PageNum(mem.Addr(line)) == 0x5000 {
			t.Errorf("prefetch issued without streaming confidence: %#x", line)
		}
	}
	if g.InternalStats().Stage1None != 1 {
		t.Errorf("Stage1None = %d", g.InternalStats().Stage1None)
	}
}

func TestDenseCounterFastDecay(t *testing.T) {
	dc := newDenseCounter()
	for i := 0; i < 10; i++ {
		dc.increment()
	}
	if !dc.full() {
		t.Fatal("DC not saturated after increments")
	}
	dc.decrement() // 7 -> 3
	if dc.v != 3 {
		t.Errorf("after fast decay v = %d, want 3", dc.v)
	}
	dc.decrement() // 3 -> 1 (halving at >2)
	if dc.v != 1 {
		t.Errorf("v = %d, want 1", dc.v)
	}
	dc.decrement() // 1 -> 0 (slow)
	dc.decrement() // floor
	if dc.v != 0 {
		t.Errorf("v = %d, want 0", dc.v)
	}
}

func TestStage2StridePromotion(t *testing.T) {
	g := NewDefault()
	c := &collect{}
	// Teach moderate confidence (DC in (2, 7)): three dense regions then
	// verify half-confidence path arms stride_flag and stage 2 promotes.
	teachDense(g, c, 0x400, 0x30000, 4)
	if !g.dc.halfConfident() || g.dc.full() {
		// Ensure we are exactly in the half-confident band for this test.
		g.dc.v = 4
	}
	g.dpct = prefetch.NewTable[struct{}](1, 8) // forget dense PCs so stage 1 uses DC only

	c2 := &collect{}
	page := uint64(0x40000)
	access(g, c2, 0x401, page, 0) // unseen PC
	access(g, c2, 0x401, page, 1)
	// Continue streaming: strides 1,1 at offset 2 onwards trigger stage 2.
	access(g, c2, 0x401, page, 2)
	access(g, c2, 0x401, page, 3)
	drainAll(g, c2)
	if g.InternalStats().Stage2Promotions == 0 {
		t.Fatal("no stage-2 promotions")
	}
	// Promotion targets skip 2 blocks: access at 3 promotes 6,7,8,9 to L1.
	got := c2.lines()
	base := page * mem.PageSize
	promoted := 0
	for _, off := range []int{6, 7, 8, 9} {
		if lvl, ok := got[base+uint64(off)*mem.LineSize]; ok && lvl == prefetch.LevelL1 {
			promoted++
		}
	}
	if promoted == 0 {
		t.Error("stage-2 promoted no blocks to L1")
	}
}

func TestStrideBackupOnMatchFailure(t *testing.T) {
	g := NewDefault()
	c := &collect{}
	// Unknown pattern (PHT miss) with a steady stride-2 walk: backup must
	// kick in after two matching strides.
	page := uint64(0x50000)
	for _, off := range []int{10, 12, 14, 16} {
		access(g, c, 0x500, page, off)
	}
	drainAll(g, c)
	if g.InternalStats().BackupActivations == 0 {
		t.Fatal("backup never armed")
	}
	if g.InternalStats().Stage2Promotions == 0 {
		t.Fatal("backup stride prefetching never fired")
	}
	got := c.lines()
	base := page * mem.PageSize
	hits := 0
	for _, off := range []int{20, 22, 24, 26} { // from access@14: skip 2*2, promote 4*2
		if _, ok := got[base+uint64(off)*mem.LineSize]; ok {
			hits++
		}
	}
	if hits == 0 {
		t.Error("no stride-backup prefetches issued")
	}
}

func TestDenseRegionNotStoredInPHT(t *testing.T) {
	g := NewDefault()
	c := &collect{}
	teachDense(g, c, 0x600, 0x60000, 3)
	if g.pht.Len() != 0 {
		t.Errorf("streaming regions leaked into PHT: %d entries", g.pht.Len())
	}
}

func TestLearnOnATEviction(t *testing.T) {
	g := NewDefault()
	c := &collect{}
	// Activate far more regions than the AT holds (64): LRU evictions
	// must trigger learning without explicit cache-eviction signals.
	for p := uint64(0); p < 200; p++ {
		runRegion(g, c, 0x700, 0x70000+p, []int{3, 7, 11})
	}
	if g.InternalStats().RegionsLearned == 0 {
		t.Error("AT eviction produced no learning")
	}
}

func TestVGazeRegionSizes(t *testing.T) {
	for _, size := range []int{512, 1024, 2048, 4096, 8192, 65536} {
		g := NewVGaze(size)
		c := &collect{}
		blocks := size / mem.LineSize
		// Stream one full region and deactivate; then check a prediction
		// happens on the next region with matching starts.
		base := uint64(0x3_0000_0000)
		for b := 0; b < blocks; b++ {
			g.Train(prefetch.Access{PC: 0x800, VAddr: base + uint64(b)*mem.LineSize}, c.issue)
		}
		g.EvictNotify(base)
		if g.InternalStats().RegionsLearned == 0 && blocks > 1 {
			t.Errorf("size %d: nothing learned", size)
		}
	}
}

func TestVGazeInvalidSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for invalid region size")
		}
	}()
	NewVGaze(100)
}

func TestGazeNMatchLengths(t *testing.T) {
	// With MatchAccesses=3, a two-access prefix must not fire; all three
	// must align.
	g := NewGazeN(3)
	c := &collect{}
	runRegion(g, c, 0x900, 0x8000, []int{4, 8, 15, 16, 23})
	g.EvictNotify(0x8000 * mem.PageSize)

	c2 := &collect{}
	access(g, c2, 0x900, 0x8100, 4)
	access(g, c2, 0x900, 0x8100, 8)
	drainAll(g, c2)
	if g.InternalStats().PHTHits != 0 {
		t.Error("3-access variant fired after 2 accesses")
	}
	access(g, c2, 0x900, 0x8100, 15)
	drainAll(g, c2)
	if g.InternalStats().PHTHits != 1 {
		t.Error("3-access variant did not fire after 3 matching accesses")
	}
}

func TestOffsetOnlyIgnoresSecond(t *testing.T) {
	g := NewGazeN(1)
	c := &collect{}
	runRegion(g, c, 0xa00, 0x9000, []int{5, 9, 12})
	g.EvictNotify(0x9000 * mem.PageSize)

	// Different second access, same trigger: Offset-only must still fire.
	c2 := &collect{}
	access(g, c2, 0xa00, 0x9100, 5)
	drainAll(g, c2)
	if g.InternalStats().PHTHits != 1 {
		t.Errorf("PHTHits = %d, want 1 (offset-only fires on trigger)", g.InternalStats().PHTHits)
	}
}

func TestStreamingOnlyVariantsIgnoreNormalRegions(t *testing.T) {
	for name, g := range map[string]*Gaze{"PHT4SS": NewPHT4SS(), "SM4SS": NewSM4SS()} {
		c := &collect{}
		runRegion(g, c, 0xb00, 0xa000, []int{5, 9, 12})
		g.EvictNotify(0xa000 * mem.PageSize)
		c2 := &collect{}
		access(g, c2, 0xb00, 0xa100, 5)
		access(g, c2, 0xb00, 0xa100, 9)
		drainAll(g, c2)
		for line := range c2.lines() {
			if mem.PageNum(mem.Addr(line)) == 0xa100 {
				t.Errorf("%s prefetched a non-streaming region", name)
			}
		}
	}
}

// TestVariantConfigs pins the switches each named ablation variant
// flips against the default design point.
func TestVariantConfigs(t *testing.T) {
	type sw struct {
		match                   int
		streaming, only, backup bool
	}
	cases := map[string]struct {
		g    *Gaze
		want sw
	}{
		"Gaze":     {NewDefault(), sw{2, true, false, true}},
		"Gaze-PHT": {NewGazePHT(), sw{2, false, false, false}},
		"Offset":   {NewGazeN(1), sw{1, false, false, false}},
		"PHT4SS":   {NewPHT4SS(), sw{2, false, true, false}},
		"SM4SS":    {NewSM4SS(), sw{2, true, true, true}},
	}
	for name, c := range cases {
		cfg := c.g.Config()
		if got := (sw{cfg.MatchAccesses, cfg.StreamingModule, cfg.StreamingOnly, cfg.StrideBackup}); got != c.want {
			t.Errorf("%s: switches = %+v, want %+v", name, got, c.want)
		}
	}
	if NewVGaze(8192).Name() != "vGaze-8KB" {
		t.Errorf("vGaze name = %q", NewVGaze(8192).Name())
	}
}

func TestStorageMatchesTableI(t *testing.T) {
	g := NewDefault()
	items := g.StorageBreakdown()
	wantBytes := map[string]float64{
		"FT":   456,
		"AT":   1128,
		"PHT":  2304,
		"DPCT": 15,
		"PB":   668,
	}
	for _, item := range items {
		if want, ok := wantBytes[item.Structure]; ok {
			if item.Bytes() != want {
				t.Errorf("%s storage = %.0fB, want %.0fB", item.Structure, item.Bytes(), want)
			}
		}
	}
	total := g.TotalStorageBytes()
	// Table I: 4.46KB.
	if total < 4500 || total > 4650 {
		t.Errorf("total storage = %.0fB, want ~4571B (4.46KB)", total)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.RegionSize = 100 },
		func(c *Config) { c.MatchAccesses = 0 },
		func(c *Config) { c.MatchAccesses = 5 },
		func(c *Config) { c.FTEntries = 0 },
		func(c *Config) { c.PHTEntries = 255 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	// Table ways outside [1,16] are errors naming the field, not a
	// divide-by-zero in Validate or an index panic in the first Train.
	for _, c := range []struct {
		field  string
		mutate func(*Config)
	}{
		{"FTWays", func(c *Config) { c.FTWays = 0 }},
		{"ATWays", func(c *Config) { c.ATWays = 0 }},
		{"PHTWays", func(c *Config) { c.PHTWays = 0 }},
		{"PHTWays", func(c *Config) { c.PHTEntries, c.PHTWays = 256, 32 }},
		{"FTWays", func(c *Config) { c.FTEntries, c.FTWays = 64, 64 }},
		{"DPCTEntries", func(c *Config) { c.DPCTEntries = 0 }},
		{"DPCTEntries", func(c *Config) { c.DPCTEntries = 17 }},
		// A set count that is not a power of two would index a larger
		// table than StorageBreakdown reports.
		{"FTEntries/FTWays", func(c *Config) { c.FTEntries = 48 }},
		{"ATEntries/ATWays", func(c *Config) { c.ATEntries, c.ATWays = 96, 8 }},
		{"PHTEntries/PHTWays", func(c *Config) { c.PHTEntries = 384 }},
	} {
		cfg := DefaultConfig()
		c.mutate(&cfg)
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s out of range: Validate = %v, want an error naming it", c.field, err)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestBitvec(t *testing.T) {
	b := newBitvec(64)
	b.set(0)
	b.set(63)
	if !b.get(0) || !b.get(63) || b.get(5) {
		t.Error("bitvec get/set wrong")
	}
	if b.popcount() != 2 {
		t.Errorf("popcount = %d", b.popcount())
	}
	var seen []int
	b.forEach(64, func(i int) { seen = append(seen, i) })
	if len(seen) != 2 || seen[0] != 0 || seen[1] != 63 {
		t.Errorf("forEach = %v", seen)
	}
	c := b.clone()
	c.set(5)
	if b.get(5) {
		t.Error("clone aliases original")
	}
	full := newBitvec(8)
	for i := 0; i < 8; i++ {
		full.set(i)
	}
	if !full.full(8) {
		t.Error("full(8) false for saturated vector")
	}
}

func TestPrefetchBufferMergePromotes(t *testing.T) {
	pb := newPrefetchBuffer(4, 64)
	pb.merge(10, 3, pbL2)
	pb.merge(10, 3, pbL1) // promote
	pb.merge(10, 5, pbL1)
	pb.merge(10, 5, pbL2) // must NOT demote
	var got []prefetch.Request
	pb.drain(16, 12, func(r prefetch.Request) { got = append(got, r) })
	if len(got) != 2 {
		t.Fatalf("drained %d requests, want 2", len(got))
	}
	for _, r := range got {
		if r.Level != prefetch.LevelL1 {
			t.Errorf("request %+v not promoted to L1", r)
		}
	}
}

func TestPrefetchBufferFIFOCapacity(t *testing.T) {
	pb := newPrefetchBuffer(2, 64)
	pb.merge(1, 0, pbL1)
	pb.merge(2, 0, pbL1)
	pb.merge(3, 0, pbL1) // evicts region 1
	var got []prefetch.Request
	pb.drain(16, 12, func(r prefetch.Request) { got = append(got, r) })
	regions := map[uint64]bool{}
	for _, r := range got {
		regions[r.VLine>>12] = true
	}
	if regions[1] || !regions[2] || !regions[3] {
		t.Errorf("FIFO eviction wrong: %v", regions)
	}
}

func TestPrefetchBufferDrainBound(t *testing.T) {
	pb := newPrefetchBuffer(4, 64)
	for off := 0; off < 20; off++ {
		pb.merge(1, off, pbL1)
	}
	n := 0
	pb.drain(5, 12, func(prefetch.Request) { n++ })
	if n != 5 {
		t.Errorf("drained %d, want 5", n)
	}
	pb.drain(100, 12, func(prefetch.Request) { n++ })
	if n != 20 {
		t.Errorf("total drained %d, want 20", n)
	}
	if pb.len() != 0 {
		t.Errorf("pb.len = %d after full drain", pb.len())
	}
}

// TestDefaultConfigMatchesReference pins DefaultConfig, and the tables
// New builds from it, to the sizes and ways of DESIGN.md §3's map of
// Gaze's structures to the reference implementation. The PB is a FIFO
// ring here, so only its entry count is pinned.
func TestDefaultConfigMatchesReference(t *testing.T) {
	cfg := DefaultConfig()
	g := New(cfg)
	for _, c := range []struct {
		name                 string
		entries, ways        int
		cfgEntries, cfgWays  int
		tableSets, tableWays int
	}{
		{"FT", 64, 8, cfg.FTEntries, cfg.FTWays, g.ft.Sets(), g.ft.Ways()},
		{"AT", 64, 8, cfg.ATEntries, cfg.ATWays, g.at.Sets(), g.at.Ways()},
		{"PHT", 256, 4, cfg.PHTEntries, cfg.PHTWays, g.pht.Sets(), g.pht.Ways()},
		{"DPCT", 8, 8, cfg.DPCTEntries, cfg.DPCTEntries, g.dpct.Sets(), g.dpct.Ways()},
	} {
		if c.cfgEntries != c.entries || c.cfgWays != c.ways {
			t.Errorf("%s: DefaultConfig has %d entries × %d ways, the map says %d × %d", c.name, c.cfgEntries, c.cfgWays, c.entries, c.ways)
		}
		if c.tableSets*c.tableWays != c.entries || c.tableWays != c.ways {
			t.Errorf("%s: New built %d sets × %d ways, want %d entries × %d ways", c.name, c.tableSets, c.tableWays, c.entries, c.ways)
		}
	}
	if cfg.PBEntries != 32 {
		t.Errorf("PB: DefaultConfig has %d entries, the map says 32", cfg.PBEntries)
	}
	if cfg.DenseFraction != 0.25 || cfg.PromoteDegree != 4 || cfg.PromoteSkip != 2 {
		t.Errorf("thresholds: DenseFraction %v, PromoteDegree %d, PromoteSkip %d; the map says 0.25, 4, 2",
			cfg.DenseFraction, cfg.PromoteDegree, cfg.PromoteSkip)
	}
}
