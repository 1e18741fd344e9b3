package prefetchers

import (
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/prefetch"
)

type sink struct{ reqs []prefetch.Request }

func (s *sink) issue(r prefetch.Request) { s.reqs = append(s.reqs, r) }

func (s *sink) has(vline uint64) bool {
	for _, r := range s.reqs {
		if r.VLine == vline {
			return true
		}
	}
	return false
}

func feed(p prefetch.Prefetcher, s *sink, pc, addr uint64) {
	p.Train(prefetch.Access{PC: pc, VAddr: addr}, s.issue)
}

func TestIPStrideLearnsConstantStride(t *testing.T) {
	p := NewIPStride(2)
	s := &sink{}
	base := uint64(0x100000)
	for i := uint64(0); i < 8; i++ {
		feed(p, s, 0x400, base+i*128) // stride 2 lines
	}
	// After confidence builds, next targets are +2 and +4 lines.
	last := base + 7*128
	if !s.has(last&^63+2*64) || !s.has(last&^63+4*64) {
		t.Errorf("stride-2 targets missing; issued %d reqs", len(s.reqs))
	}
}

func TestIPStrideIgnoresRandom(t *testing.T) {
	p := NewIPStride(2)
	s := &sink{}
	x := uint64(12345)
	for i := 0; i < 100; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		feed(p, s, 0x400, 0x100000+(x%(1<<20))&^63)
	}
	if len(s.reqs) > 20 {
		t.Errorf("random stream produced %d stride prefetches", len(s.reqs))
	}
}

// teachSpatial teaches a (pc, trigger-offset)-keyed footprint to a
// tracker-based prefetcher: touch pattern blocks on a page, then
// deactivate by evicting.
func teachSpatial(p prefetch.Prefetcher, s *sink, pc uint64, page uint64, offs []int) {
	for _, off := range offs {
		feed(p, s, pc, page*mem.PageSize+uint64(off)*mem.LineSize)
	}
	p.EvictNotify(page * mem.PageSize)
}

func TestSMSPredictsOnTrigger(t *testing.T) {
	p := NewSMS(DefaultSMSConfig())
	s := &sink{}
	// 2KB regions: offsets 0-31. Teach footprint {3, 7, 12}.
	teachSpatial(p, s, 0xabc, 0x1000, []int{3, 7, 12})
	teachSpatial(p, s, 0xabc, 0x1002, []int{3, 7, 12})

	s2 := &sink{}
	// New region, same PC, same trigger offset 3: predict {7, 12}.
	feed(p, s2, 0xabc, 0x2000*mem.PageSize+3*mem.LineSize)
	base := uint64(0x2000) * mem.PageSize
	if !s2.has(base+7*mem.LineSize) || !s2.has(base+12*mem.LineSize) {
		t.Errorf("SMS did not predict footprint; issued %v", s2.reqs)
	}
}

func TestSMSDistinguishesByPC(t *testing.T) {
	p := NewSMS(DefaultSMSConfig())
	s := &sink{}
	teachSpatial(p, s, 0x111, 0x1000, []int{3, 7, 12})
	teachSpatial(p, s, 0x222, 0x1002, []int{3, 20, 25})

	s2 := &sink{}
	feed(p, s2, 0x222, 0x3000*mem.PageSize+3*mem.LineSize)
	base := uint64(0x3000) * mem.PageSize
	if !s2.has(base + 20*mem.LineSize) {
		t.Error("SMS missed PC-specific pattern")
	}
	if s2.has(base + 7*mem.LineSize) {
		t.Error("SMS leaked pattern across PCs")
	}
}

func TestBingoLongEventPriority(t *testing.T) {
	p := NewBingo(DefaultBingoConfig())
	s := &sink{}
	// Same PC+offset, two different regions with different footprints:
	// revisiting region A must use A's exact pattern, not B's.
	teachSpatial(p, s, 0x500, 0xA000, []int{5, 9, 14})
	teachSpatial(p, s, 0x500, 0xB000, []int{5, 22, 28})

	s2 := &sink{}
	feed(p, s2, 0x500, 0xA000*mem.PageSize+5*mem.LineSize) // revisit A
	base := uint64(0xA000) * mem.PageSize
	if !s2.has(base + 9*mem.LineSize) {
		t.Error("Bingo exact match missed region A's own pattern")
	}
}

func TestBingoShortEventFallback(t *testing.T) {
	p := NewBingo(DefaultBingoConfig())
	s := &sink{}
	teachSpatial(p, s, 0x600, 0xC000, []int{4, 8, 16})

	s2 := &sink{}
	// Brand-new region (long event unseen) with same PC+offset: the short
	// event must still produce an approximate match.
	feed(p, s2, 0x600, 0xD000*mem.PageSize+4*mem.LineSize)
	base := uint64(0xD000) * mem.PageSize
	if !s2.has(base + 8*mem.LineSize) {
		t.Error("Bingo short-event fallback failed")
	}
}

func TestDSPatchDualPatterns(t *testing.T) {
	p := NewDSPatch()
	s := &sink{}
	// Footprints under one PC: {0,1,2} and {0,1,5}. CovP = {0,1,2,5},
	// AccP = {0,1}.
	teachSpatial(p, s, 0x700, 0xE000, []int{0, 1, 2})
	teachSpatial(p, s, 0x700, 0xE002, []int{0, 1, 5})

	// Low bandwidth pressure: coverage pattern (CovP).
	p.SetBandwidthProbe(func() float64 { return 0 })
	s2 := &sink{}
	feed(p, s2, 0x700, 0xF000*mem.PageSize)
	base := uint64(0xF000) * mem.PageSize
	if !s2.has(base+2*mem.LineSize) || !s2.has(base+5*mem.LineSize) {
		t.Errorf("CovP union missing blocks: %v", s2.reqs)
	}

	// High pressure: accuracy pattern (AccP) only.
	p.SetBandwidthProbe(func() float64 { return 5 })
	s3 := &sink{}
	feed(p, s3, 0x700, 0xF100*mem.PageSize)
	base = uint64(0xF100) * mem.PageSize
	if s3.has(base+2*mem.LineSize) || s3.has(base+5*mem.LineSize) {
		t.Errorf("AccP leaked union-only blocks under pressure: %v", s3.reqs)
	}
	if !s3.has(base + mem.LineSize) {
		t.Error("AccP intersection block missing")
	}
}

func TestPMPMergingAndThresholds(t *testing.T) {
	p := NewPMP()
	s := &sink{}
	// Merge 10 footprints at trigger 2: block 6 always follows (conf 1.0),
	// block 30 follows 20% of the time (conf 0.2 → L2 band).
	for i := 0; i < 10; i++ {
		offs := []int{2, 6}
		if i%5 == 0 {
			offs = append(offs, 30)
		}
		teachSpatial(p, s, 0x800, uint64(0x10000+i*2), offs)
	}
	s2 := &sink{}
	feed(p, s2, 0x801, 0x20000*mem.PageSize+2*mem.LineSize) // PC-independent
	base := uint64(0x20000) * mem.PageSize
	var l1, l2 bool
	for _, r := range s2.reqs {
		if r.VLine == base+6*mem.LineSize && r.Level == prefetch.LevelL1 {
			l1 = true
		}
		if r.VLine == base+30*mem.LineSize && r.Level == prefetch.LevelL2 {
			l2 = true
		}
	}
	if !l1 {
		t.Error("high-confidence block not prefetched to L1")
	}
	if !l2 {
		t.Error("mid-confidence block not prefetched to L2")
	}
}

func TestPMPPerOffsetKeying(t *testing.T) {
	p := NewPMP()
	s := &sink{}
	// Teach at trigger 10 with a +4 follower. The OPT holds one merged
	// counter vector per trigger offset, so the pattern fires on new
	// pages at trigger 10 but not at trigger 20.
	for i := 0; i < 6; i++ {
		teachSpatial(p, s, 0x900, uint64(0x30000+i*2), []int{10, 14})
	}
	s2 := &sink{}
	feed(p, s2, 0x900, 0x40000*mem.PageSize+10*mem.LineSize)
	base := uint64(0x40000) * mem.PageSize
	if !s2.has(base + 14*mem.LineSize) {
		t.Errorf("per-offset pattern did not fire on a new page: %v", s2.reqs)
	}
	s3 := &sink{}
	feed(p, s3, 0x900, 0x50000*mem.PageSize+20*mem.LineSize)
	if len(s3.reqs) != 0 {
		t.Errorf("pattern leaked across trigger offsets: %v", s3.reqs)
	}
}

func TestPMPIsTriggerAmbiguous(t *testing.T) {
	// Two families share trigger 0 with different followers; PMP merges
	// them and prefetches the union — the mischaracterization Gaze fixes.
	p := NewPMP()
	s := &sink{}
	for i := 0; i < 8; i++ {
		teachSpatial(p, s, 0xa00, uint64(0x50000+i*2), []int{0, 8})
		teachSpatial(p, s, 0xb00, uint64(0x51000+i*2), []int{0, 40})
	}
	s2 := &sink{}
	feed(p, s2, 0xa00, 0x60000*mem.PageSize)
	base := uint64(0x60000) * mem.PageSize
	if !s2.has(base+8*mem.LineSize) || !s2.has(base+40*mem.LineSize) {
		t.Skip("merge below threshold; acceptable")
	}
	// Both following blocks predicted: one of them is necessarily wrong
	// for whichever pattern this region actually is.
}

func TestIPCPStreamClass(t *testing.T) {
	p := NewIPCP()
	s := &sink{}
	base := uint64(0x200000)
	for i := uint64(0); i < 64; i++ {
		feed(p, s, 0x400, base+i*64)
	}
	if len(s.reqs) == 0 {
		t.Fatal("IPCP issued nothing on a dense stream")
	}
	// Final accesses must produce next-line-ahead requests.
	found := false
	last := base + 63*64
	for _, r := range s.reqs {
		if r.VLine > last {
			found = true
		}
	}
	if !found {
		t.Error("no ahead-of-stream prefetches")
	}
}

func TestSPPLookaheadDepth(t *testing.T) {
	p := NewSPPPPF()
	s := &sink{}
	page := uint64(0x300000) * mem.PageSize
	// Constant delta 2 within a page, repeated over pages to build
	// signature confidence.
	for pg := uint64(0); pg < 6; pg++ {
		for off := uint64(0); off < 30; off += 2 {
			feed(p, s, 0x500, page+pg*mem.PageSize+off*mem.LineSize)
		}
	}
	if len(s.reqs) == 0 {
		t.Fatal("SPP issued nothing on a delta-2 walk")
	}
	// Lookahead must reach multiple deltas ahead at least once.
	multi := false
	for _, r := range s.reqs {
		off := mem.BlockOffset(mem.Addr(r.VLine))
		if off >= 4 && off%2 == 0 {
			multi = true
		}
	}
	if !multi {
		t.Error("no lookahead targets")
	}
}

func TestSPPPPFNegativeFeedbackSuppresses(t *testing.T) {
	p := NewSPPPPF()
	s := &sink{}
	page := uint64(0x400000) * mem.PageSize
	countIssues := func() int {
		s2 := &sink{}
		for pg := uint64(100); pg < 104; pg++ {
			for off := uint64(0); off < 24; off += 3 {
				p.Train(prefetch.Access{PC: 0x600, VAddr: page + pg*mem.PageSize + off*mem.LineSize}, s2.issue)
			}
		}
		return len(s2.reqs)
	}
	// Build confidence.
	for pg := uint64(0); pg < 6; pg++ {
		for off := uint64(0); off < 24; off += 3 {
			feed(p, s, 0x600, page+pg*mem.PageSize+off*mem.LineSize)
		}
	}
	before := countIssues()
	if before == 0 {
		t.Skip("no baseline issues to suppress")
	}
	// Punish every issued line as useless.
	for _, r := range s.reqs {
		p.EvictDetail(r.VLine, true)
	}
	for i := 0; i < 40; i++ { // repeated punishment rounds
		s3 := &sink{}
		for off := uint64(0); off < 24; off += 3 {
			p.Train(prefetch.Access{PC: 0x600, VAddr: page + uint64(200+i)*mem.PageSize + off*mem.LineSize}, s3.issue)
		}
		for _, r := range s3.reqs {
			p.EvictDetail(r.VLine, true)
		}
	}
	after := countIssues()
	if after >= before {
		t.Errorf("negative feedback did not suppress: before=%d after=%d", before, after)
	}
}

func TestBertiLearnsTimelyDelta(t *testing.T) {
	p := NewBerti()
	s := &sink{}
	base := uint64(0x500000)
	cycle := 0.0
	// Stride-1 line walk with generous spacing: deltas are timely.
	for i := uint64(0); i < 120; i++ {
		p.Train(prefetch.Access{
			PC: 0x700, VAddr: base + i*64, Cycle: cycle, MissLatency: 100,
		}, s.issue)
		cycle += 50
	}
	if len(s.reqs) == 0 {
		t.Fatal("vBerti issued nothing on a steady stride")
	}
	// Elected deltas must reach multiple lines ahead (timeliness: one
	// 50-cycle step is not enough for a 100-cycle latency).
	ahead := false
	for _, r := range s.reqs {
		if int64(r.VLine>>6)-int64((base+119*64)>>6) >= 2 {
			ahead = true
		}
	}
	if !ahead {
		t.Log("warning: no deep deltas elected (acceptable but unexpected)")
	}
}

func TestBertiCrossPageBounded(t *testing.T) {
	p := NewBerti()
	s := &sink{}
	cycle := 0.0
	// Huge stride (16 pages): outside vBerti's 4-page window, never issued.
	for i := uint64(0); i < 100; i++ {
		p.Train(prefetch.Access{
			PC: 0x800, VAddr: 0x600000 + i*16*mem.PageSize, Cycle: cycle, MissLatency: 50,
		}, s.issue)
		cycle += 500
	}
	if len(s.reqs) != 0 {
		t.Errorf("vBerti issued %d cross-page requests beyond its window", len(s.reqs))
	}
}

func TestFactoryKnownNames(t *testing.T) {
	names := append(EvaluatedNames(),
		"none", "Gaze-PHT", "Offset", "PHT4SS", "SM4SS",
		"Gaze-1acc", "Gaze-2acc", "Gaze-3acc", "Gaze-4acc",
		"vGaze-8KB", "vGaze-64KB")
	for _, name := range names {
		p, err := New(name)
		if err != nil {
			t.Errorf("New(%q): %v", name, err)
			continue
		}
		if p == nil {
			t.Errorf("New(%q) returned nil", name)
		}
	}
	if _, err := New("bogus"); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestFactoryReturnsFreshState(t *testing.T) {
	a := MustNew("PMP")
	b := MustNew("PMP")
	if a == b {
		t.Error("factory shared prefetcher state")
	}
}

func TestStorageBytesTableIV(t *testing.T) {
	want := map[string]float64{
		"SMS":     116.6 * 1024,
		"Bingo":   138.6 * 1024,
		"DSPatch": 4.25 * 1024,
		"PMP":     5.0 * 1024,
		"IPCP-L1": 0.7 * 1024,
		"SPP-PPF": 39.3 * 1024,
		"vBerti":  2.55 * 1024,
	}
	for name, wantB := range want {
		p := MustNew(name)
		got, ok := StorageBytes(p)
		if !ok {
			t.Errorf("%s exposes no storage accounting", name)
			continue
		}
		if got != wantB {
			t.Errorf("%s storage = %.1fB, want %.1fB", name, got, wantB)
		}
	}
	// Gaze's budget comes from its Table I breakdown.
	g := MustNew("Gaze")
	got, ok := StorageBytes(g)
	if !ok || got < 4500 || got > 4650 {
		t.Errorf("Gaze storage = %v (ok=%v), want ~4571B", got, ok)
	}
}

func TestTrackerRotation(t *testing.T) {
	tr := newRegionTracker(4096, func(*trkAT) {})
	fp := uint64(0b1011)
	for k := 0; k < 64; k++ {
		if got := tr.rotl(tr.rotr(fp, k), k); got != fp {
			t.Fatalf("rot round-trip failed at k=%d: %#x", k, got)
		}
	}
	// Anchoring: bit at trigger lands at position 0.
	if tr.rotr(1<<10, 10)&1 != 1 {
		t.Error("rotr does not anchor trigger at bit 0")
	}
}

func TestTrackerFiltersOneBit(t *testing.T) {
	learned := 0
	tr := newRegionTracker(4096, func(*trkAT) { learned++ })
	// 100 single-access regions cycled through the FT: none learned.
	for i := uint64(0); i < 100; i++ {
		tr.observe(prefetch.Access{PC: 1, VAddr: i * mem.PageSize})
	}
	if learned != 0 {
		t.Errorf("one-bit regions learned: %d", learned)
	}
}

func TestParametricNameBounds(t *testing.T) {
	// Within the paper's sweep ranges: fine.
	for _, name := range []string{"vGaze-512B", "vGaze-64KB", "Gaze-PHT1024"} {
		if _, err := New(name); err != nil {
			t.Errorf("New(%q) = %v, want ok", name, err)
		}
	}
	// Absurd parameters must error instead of allocating: gazeserve
	// validates names by constructing them.
	for _, name := range []string{"vGaze-999999999KB", "vGaze-999999999999B", "Gaze-PHT1000000000"} {
		if _, err := New(name); err == nil {
			t.Errorf("New(%q) accepted an unbounded parameter", name)
		}
	}
}

func TestParametricNameStructuralValidation(t *testing.T) {
	// Structurally invalid parameters must return errors, never panic:
	// non-power-of-two regions, way-indivisible PHT sizes, overflow-sized
	// KB values that would wrap past the magnitude cap.
	for _, name := range []string{"vGaze-3KB", "vGaze-100B", "Gaze-PHT7", "vGaze-9007199254740993KB"} {
		p, err := New(name)
		if err == nil {
			t.Errorf("New(%q) = %T, want error", name, p)
		}
	}
}

func TestGazePHTSizeMustGivePowerOfTwoSets(t *testing.T) {
	// 384 entries over 4 ways is 96 sets: rejected with the field named,
	// rather than built as a 512-entry table reported as 384.
	_, err := New("Gaze-PHT384")
	if err == nil || !strings.Contains(err.Error(), "PHTEntries/PHTWays") {
		t.Errorf("New(Gaze-PHT384) = %v, want an error naming PHTEntries/PHTWays", err)
	}
	for _, name := range []string{"Gaze-PHT128", "Gaze-PHT512", "Gaze-PHT1024"} {
		if _, err := New(name); err != nil {
			t.Errorf("New(%q) = %v, want ok", name, err)
		}
	}
}

func TestParametricNameRejectsTrailingJunk(t *testing.T) {
	// Sloppy parsing would turn each junk suffix into a distinct cache
	// key for the identical configuration.
	for _, name := range []string{"Gaze-PHT256a", "vGaze-8KBjunk", "vGaze-512Bx", "vGaze-KB",
		"vGaze-08KB", "vGaze-+8KB", "Gaze-PHT0256"} { // non-canonical spellings would mint duplicate cache keys
		if p, err := New(name); err == nil {
			t.Errorf("New(%q) = %T, want error", name, p)
		}
	}
}
