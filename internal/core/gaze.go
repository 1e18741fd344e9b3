// Package core implements Gaze, the paper's contribution: a spatial
// prefetcher that characterizes footprint patterns by the *internal
// temporal correlation* of a region's first two accesses (§III-B), with a
// dedicated two-stage aggressiveness controller for spatial-streaming
// footprints (§III-C).
//
// Structures follow Table I exactly in the default configuration:
//
//	FT   64-entry 8-way   — filters one-bit patterns, captures trigger
//	AT   64-entry 8-way   — footprint accumulation + stride tracking
//	PHT  256-entry 4-way  — trigger offset as index, second offset as tag
//	DPCT 8-entry FA       — recently-dense trigger PCs
//	DC   3-bit counter    — streaming confidence
//	PB   32-entry         — per-region pending prefetch patterns
package core

import (
	"fmt"

	"repro/internal/lru"
	"repro/internal/mem"
	"repro/internal/prefetch"
)

// Config parameterizes Gaze. DefaultConfig reproduces the paper's Table I
// design point; the other knobs exist for the paper's sensitivity studies
// (Fig 4, Fig 17, Fig 18) and the ablations of Fig 9/10.
type Config struct {
	// RegionSize is the spatial region in bytes (4KB default; vGaze
	// explores 0.5KB-64KB, Fig 17a/18).
	RegionSize int

	FTEntries int
	FTWays    int
	ATEntries int
	ATWays    int

	// PHTEntries/PHTWays size the pattern history table (Fig 17b sweeps
	// 128-1024 entries).
	PHTEntries int
	PHTWays    int

	DPCTEntries int
	PBEntries   int

	// PBDrainPerTrain bounds how many buffered prefetches issue per
	// observed load (issue smoothing).
	PBDrainPerTrain int

	// MatchAccesses is how many initial accesses must align for a pattern
	// match (Fig 4 sweeps 1-4; 2 is the paper's design point; 1 degrades
	// to trigger-offset-only characterization).
	MatchAccesses int

	// StreamingModule enables the DPCT/DC two-stage streaming path; when
	// false, dense streaming patterns flow through the PHT like any other
	// pattern (the PHT4SS / Gaze-PHT ablations).
	StreamingModule bool

	// StrideBackup enables region-stride prefetching for regions whose
	// strict match failed (§III-C's dual-purpose backup).
	StrideBackup bool

	// StreamingOnly restricts prefetch *triggering* to streaming-start
	// regions (trigger=0, second=1) — the Fig 10 PHT4SS/SM4SS setting.
	StreamingOnly bool

	// DenseFraction of the region prefetched at the higher level in
	// streaming stage 1 (paper: one quarter = 16 of 64 blocks).
	DenseFraction float64

	// PromoteDegree and PromoteSkip parameterize stage 2: on a confirmed
	// stride, promote PromoteDegree blocks after skipping PromoteSkip.
	PromoteDegree int
	PromoteSkip   int
}

// DefaultConfig returns the paper's Gaze design point.
func DefaultConfig() Config {
	return Config{
		RegionSize:      mem.PageSize,
		FTEntries:       64,
		FTWays:          8,
		ATEntries:       64,
		ATWays:          8,
		PHTEntries:      256,
		PHTWays:         4,
		DPCTEntries:     8,
		PBEntries:       32,
		PBDrainPerTrain: 4,
		MatchAccesses:   2,
		StreamingModule: true,
		StrideBackup:    true,
		DenseFraction:   0.25,
		PromoteDegree:   4,
		PromoteSkip:     2,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.RegionSize < 2*mem.LineSize || c.RegionSize&(c.RegionSize-1) != 0 {
		return fmt.Errorf("core: region size must be a power of two >= 128, got %d", c.RegionSize)
	}
	if c.MatchAccesses < 1 || c.MatchAccesses > 4 {
		return fmt.Errorf("core: MatchAccesses must be in [1,4], got %d", c.MatchAccesses)
	}
	if c.FTEntries <= 0 || c.ATEntries <= 0 || c.PHTEntries <= 0 || c.PBEntries <= 0 {
		return fmt.Errorf("core: table sizes must be positive")
	}
	// Every table is a prefetch.Table; the DPCT is one fully-associative set.
	ways := []int{c.FTWays, c.ATWays, c.PHTWays, c.DPCTEntries}
	for i, name := range []string{"FTWays", "ATWays", "PHTWays", "DPCTEntries"} {
		if ways[i] < 1 || ways[i] > lru.MaxWays {
			return fmt.Errorf("core: %s must be in [1,%d], got %d", name, lru.MaxWays, ways[i])
		}
	}
	if c.FTEntries%c.FTWays != 0 || c.ATEntries%c.ATWays != 0 || c.PHTEntries%c.PHTWays != 0 {
		return fmt.Errorf("core: entries must divide evenly into ways")
	}
	// Set indices are masks, so each table's set count must be a power of
	// two: New then builds exactly the size StorageBreakdown reports.
	sets := []int{c.FTEntries / c.FTWays, c.ATEntries / c.ATWays, c.PHTEntries / c.PHTWays}
	for i, name := range []string{"FTEntries/FTWays", "ATEntries/ATWays", "PHTEntries/PHTWays"} {
		if sets[i]&(sets[i]-1) != 0 {
			return fmt.Errorf("core: %s must be a power of two, got %d sets", name, sets[i])
		}
	}
	return nil
}

// ftEntry is a Filter Table payload (Table I).
type ftEntry struct {
	hashedPC uint16
	trigger  uint16
}

// atEntry is an Accumulation Table payload (Table I).
type atEntry struct {
	region   uint64
	hashedPC uint16
	// firstOffs holds the first MatchAccesses distinct-block offsets in
	// access order; firstOffs[0] is the trigger, firstOffs[1] the second.
	firstOffs [4]uint16
	nFirst    uint8
	// last/penultimate raw access offsets for stride computation.
	last       int16
	penult     int16
	strideFlag bool
	// predicted remembers whether a prefetch decision was already made.
	predicted bool
	// promoteLo/promoteHi bound the offsets already covered by stage-2
	// promotions, so a steady stream does not re-request the same blocks
	// on every access.
	promoteLo int16
	promoteHi int16
	bits      bitvec
}

// phtEntry is a Pattern History Table payload: a footprint bit vector
// (64 bits per line in the default configuration — the storage advantage
// over PMP's counter vectors, §III-E).
type phtEntry struct {
	bits bitvec
}

// Gaze is the prefetcher. It implements prefetch.Prefetcher.
type Gaze struct {
	cfg    Config
	blocks int  // blocks per region
	shift  uint // log2(RegionSize)

	ft   *prefetch.Table[ftEntry]
	at   *prefetch.Table[atEntry]
	pht  *prefetch.Table[phtEntry]
	dpct *prefetch.Table[struct{}] // one set; hashed PCs are the tags
	dc   *denseCounter
	pb   *prefetchBuffer

	// reuse* back the region-reuse distance histogram of
	// prefetch.Introspector: a direct-mapped table of recently activated
	// regions keyed region→slot, recording the activation sequence
	// number each region was last seen at. Fixed arrays, one masked
	// index per region activation — nothing the hot loop notices.
	reuseSeq  uint64
	reuseTags []uint64 // region+1; 0 = empty slot
	reuseSeen []uint64
	reuseHist [16]uint64

	stats Stats
}

// Stats counts Gaze-internal events, exposed for the analysis experiments.
type Stats struct {
	RegionsTracked    uint64
	RegionsLearned    uint64
	PHTHits           uint64
	PHTMisses         uint64
	StreamingRegions  uint64
	DenseLearned      uint64
	Stage1Full        uint64
	Stage1Half        uint64
	Stage1None        uint64
	Stage2Promotions  uint64
	BackupActivations uint64
}

// New constructs a Gaze prefetcher; it panics on invalid configuration
// (construction is setup-time).
func New(cfg Config) *Gaze {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	shift := uint(0)
	for s := cfg.RegionSize; s > 1; s >>= 1 {
		shift++
	}
	g := &Gaze{
		cfg:    cfg,
		blocks: cfg.RegionSize / mem.LineSize,
		shift:  shift,
		ft:     prefetch.NewTable[ftEntry](cfg.FTEntries/cfg.FTWays, cfg.FTWays),
		at:     prefetch.NewTable[atEntry](cfg.ATEntries/cfg.ATWays, cfg.ATWays),
		pht:    prefetch.NewTable[phtEntry](cfg.PHTEntries/cfg.PHTWays, cfg.PHTWays),
		dpct:   prefetch.NewTable[struct{}](1, cfg.DPCTEntries),
		dc:     newDenseCounter(),
		pb:     newPrefetchBuffer(cfg.PBEntries, cfg.RegionSize/mem.LineSize),

		reuseTags: make([]uint64, reuseSlots),
		reuseSeen: make([]uint64, reuseSlots),
	}
	return g
}

// reuseSlots sizes the direct-mapped region-reuse tracker (power of two).
const reuseSlots = 256

// Name implements prefetch.Prefetcher.
func (g *Gaze) Name() string {
	if g.cfg.RegionSize != mem.PageSize {
		return fmt.Sprintf("vGaze-%dKB", g.cfg.RegionSize/1024)
	}
	return "Gaze"
}

// Config returns the active configuration.
func (g *Gaze) Config() Config { return g.cfg }

// InternalStats returns the event counters.
func (g *Gaze) InternalStats() Stats { return g.stats }

func (g *Gaze) region(vaddr uint64) uint64 { return vaddr >> g.shift }
func (g *Gaze) offset(vaddr uint64) int {
	return int((vaddr >> mem.LineBits) & uint64(g.blocks-1))
}

// Train implements prefetch.Prefetcher (the access flow of Fig 3b).
func (g *Gaze) Train(a prefetch.Access, issue prefetch.IssueFunc) {
	region := g.region(a.VAddr)
	off := g.offset(a.VAddr)
	hpc := mem.HashPC(a.PC)

	atSet := g.at.SetIndex(region)
	if e, ok := g.at.Lookup(atSet, region); ok {
		g.trackedAccess(e, off)
	} else if fe, ok := g.ft.Lookup(g.ft.SetIndex(region), region); ok {
		if int(fe.trigger) != off {
			// Second distinct access: promote FT→AT (➌) and decide on
			// prefetching with (trigger, second, trigger PC) (➍➎).
			g.promoteToAT(region, *fe, off)
		}
	} else {
		// Newly activated region (➋): start filtering in the FT.
		g.recordActivation(region)
		g.ft.Insert(g.ft.SetIndex(region), region, ftEntry{hashedPC: hpc, trigger: uint16(off)})
		if g.cfg.MatchAccesses == 1 && !g.cfg.StreamingOnly {
			// Offset-only characterization awakens on the trigger access,
			// like conventional spatial prefetchers (§II-A).
			pseudo := atEntry{region: region, hashedPC: hpc, bits: newBitvec(g.blocks)}
			pseudo.firstOffs[0] = uint16(off)
			pseudo.nFirst = 1
			pseudo.bits.set(off)
			g.phtPredictNoBackup(&pseudo)
		}
	}

	// Smoothed issue from the PB (➎ → memory system).
	g.pb.drain(g.cfg.PBDrainPerTrain, g.shift, issue)
}

// trackedAccess updates an AT-resident region (footprint accumulation,
// delayed matching for MatchAccesses > 2, and stage-2 stride logic).
func (g *Gaze) trackedAccess(e *atEntry, off int) {
	newBlock := !e.bits.get(off)
	if newBlock {
		e.bits.set(off)
		if int(e.nFirst) < g.cfg.MatchAccesses {
			e.firstOffs[e.nFirst] = uint16(off)
			e.nFirst++
			if int(e.nFirst) == g.cfg.MatchAccesses && !e.predicted {
				g.predict(e)
			}
		}
	}

	// Stage 2 / backup: compute the last two strides.
	s1 := int(e.last) - int(e.penult)
	s2 := off - int(e.last)
	if e.strideFlag && s1 == s2 && s1 != 0 {
		g.stridePromote(e, off, s1)
	}
	e.penult = e.last
	e.last = int16(off)
}

// promoteToAT moves a region from FT to AT on its second distinct access.
// fe is passed by value: the FT entry is invalidated here.
func (g *Gaze) promoteToAT(region uint64, fe ftEntry, second int) {
	g.ft.Invalidate(g.ft.SetIndex(region), region)
	g.stats.RegionsTracked++

	e := atEntry{
		region:   region,
		hashedPC: fe.hashedPC,
		last:     int16(second),
		penult:   int16(fe.trigger),
		bits:     newBitvec(g.blocks),
	}
	e.firstOffs[0] = fe.trigger
	e.firstOffs[1] = uint16(second)
	e.nFirst = 2
	e.bits.set(int(fe.trigger))
	e.bits.set(second)

	if g.cfg.MatchAccesses == 2 {
		g.predict(&e)
	} else if g.cfg.MatchAccesses == 1 {
		// The trigger-access prediction already fired; only arm streaming
		// stride tracking so stage 2 still works for this variant.
		e.predicted = true
	}

	if evicted, was := g.at.Insert(g.at.SetIndex(region), region, e); was {
		// LRU deactivation of the displaced region (➏): learn its pattern.
		g.learn(&evicted)
	}
}

// predict runs the PHM decision (Fig 3c) for a region whose first
// MatchAccesses offsets are known.
func (g *Gaze) predict(e *atEntry) {
	e.predicted = true
	trigger := int(e.firstOffs[0])
	second := int(e.firstOffs[1])

	if g.isStreamingStart(trigger, second) {
		g.stats.StreamingRegions++
		if g.cfg.StreamingModule {
			g.streamingStage1(e)
		} else {
			// Ablation: treat the dense pattern like any other PHT entry.
			g.phtPredict(e)
		}
		// Streaming candidates always arm stage 2.
		e.strideFlag = true
		return
	}

	if g.cfg.StreamingOnly {
		// Fig 10 setting: only streaming regions are handled.
		return
	}
	g.phtPredict(e)
}

// isStreamingStart reports the spatial-streaming signature: the first two
// accesses are block 0 then block 1.
func (g *Gaze) isStreamingStart(trigger, second int) bool {
	return g.cfg.MatchAccesses >= 2 && trigger == 0 && second == 1
}

// phtKey maps the first-N offsets to (set, tag). For the paper's design
// point (N=2, 64-set PHT) this is literally "trigger as index, second as
// tag"; larger N concatenates further offsets into the tag, and non-64-set
// geometries fold spill bits into the tag so no information is lost.
func (g *Gaze) phtKey(e *atEntry) (int, uint64) {
	trigger := uint64(e.firstOffs[0])
	var tag uint64
	for i := 1; i < g.cfg.MatchAccesses; i++ {
		tag = tag<<10 | uint64(e.firstOffs[i])
	}
	sets := uint64(g.pht.Sets())
	set := int(trigger % sets)
	tag = tag<<10 | trigger/sets
	return set, tag
}

// phtPredict looks up the learned pattern under strict matching and, on a
// hit, schedules every pattern block (minus those already demanded) for
// the L1D (§III-D: "PHT prefetches all blocks into the L1D").
func (g *Gaze) phtPredict(e *atEntry) {
	hit := g.phtPredictNoBackup(e)
	if !hit && g.cfg.StrideBackup {
		// Strict match failed: arm the region-stride backup (§III-C).
		e.strideFlag = true
		g.stats.BackupActivations++
	}
}

// phtPredictNoBackup performs the lookup + issue without arming the
// backup; it reports whether the lookup hit.
func (g *Gaze) phtPredictNoBackup(e *atEntry) bool {
	set, tag := g.phtKey(e)
	p, ok := g.pht.Lookup(set, tag)
	if !ok {
		g.stats.PHTMisses++
		return false
	}
	g.stats.PHTHits++
	demanded := e.bits
	p.bits.forEach(g.blocks, func(off int) {
		if !demanded.get(off) {
			g.pb.merge(e.region, off, pbL1)
		}
	})
	return true
}

// streamingStage1 assigns the initial aggressiveness for a likely
// streaming region (Fig 3c, upper part).
func (g *Gaze) streamingStage1(e *atEntry) {
	head := int(float64(g.blocks) * g.cfg.DenseFraction)
	if head < 2 {
		head = 2
	}
	// A DPCT hit refreshes the PC's recency.
	_, densePC := g.dpct.Lookup(0, uint64(e.hashedPC))
	switch {
	case densePC || g.dc.full():
		// Confident: first quarter to L1D, the rest to L2C.
		g.stats.Stage1Full++
		for off := 0; off < head; off++ {
			if !e.bits.get(off) {
				g.pb.merge(e.region, off, pbL1)
			}
		}
		for off := head; off < g.blocks; off++ {
			g.pb.merge(e.region, off, pbL2)
		}
	case g.dc.halfConfident():
		// Moderate: only the first quarter, and only into L2C.
		g.stats.Stage1Half++
		for off := 0; off < head; off++ {
			if !e.bits.get(off) {
				g.pb.merge(e.region, off, pbL2)
			}
		}
	default:
		// No confidence: refrain; stage 2 may still promote later.
		g.stats.Stage1None++
	}
}

// stridePromote implements stage 2 and the backup prefetcher: after two
// matching non-zero strides, fetch PromoteDegree blocks into L1D, skipping
// PromoteSkip ahead (in-flight blocks are likely already covered). A
// per-region promotion frontier prevents re-requesting blocks an earlier
// promotion already covered.
func (g *Gaze) stridePromote(e *atEntry, off, stride int) {
	promoted := false
	for k := 1; k <= g.cfg.PromoteDegree; k++ {
		target := off + (g.cfg.PromoteSkip+k)*stride
		if target < 0 || target >= g.blocks {
			break
		}
		if stride > 0 {
			if e.promoteHi != 0 && int16(target) <= e.promoteHi {
				continue
			}
			e.promoteHi = int16(target)
		} else {
			if e.promoteLo != 0 && int16(target) >= e.promoteLo {
				continue
			}
			e.promoteLo = int16(target)
		}
		g.pb.merge(e.region, target, pbL1)
		promoted = true
	}
	if promoted {
		g.stats.Stage2Promotions++
	}
}

// EvictNotify implements prefetch.Prefetcher: eviction of a cached block
// belonging to a tracked region deactivates the region (➏) and learns its
// accumulated pattern.
func (g *Gaze) EvictNotify(vline uint64) {
	region := vline >> g.shift
	if e, ok := g.at.Invalidate(g.at.SetIndex(region), region); ok {
		g.learn(&e)
	}
}

// learn consumes a deactivated region's footprint (Fig 3a).
func (g *Gaze) learn(e *atEntry) {
	g.stats.RegionsLearned++
	trigger := int(e.firstOffs[0])
	second := 0
	if e.nFirst >= 2 {
		second = int(e.firstOffs[1])
	}

	if g.cfg.StreamingModule && g.isStreamingStart(trigger, second) {
		// Spatial-streaming detection: was the region entirely requested?
		if e.bits.full(g.blocks) {
			g.stats.DenseLearned++
			g.dpct.Insert(0, uint64(e.hashedPC), struct{}{})
			g.dc.increment()
		} else {
			g.dc.decrement()
		}
		return
	}
	if int(e.nFirst) < g.cfg.MatchAccesses {
		// Fewer distinct accesses than the match length: nothing to store.
		return
	}
	set, tag := g.phtKey(e)
	g.pht.Insert(set, tag, phtEntry{bits: e.bits.clone()})
}

// recordActivation feeds the region-reuse distance histogram: when a
// region re-activates and its previous activation is still resident in
// the direct-mapped tracker, the distance between the two activation
// sequence numbers is log2-bucketed. Direct-mapped conflicts drop the
// older region silently — the histogram is a characterization signal,
// not an exact count.
func (g *Gaze) recordActivation(region uint64) {
	i := region & uint64(len(g.reuseTags)-1)
	if g.reuseTags[i] == region+1 {
		dist := g.reuseSeq - g.reuseSeen[i]
		b := 0
		for d := dist; d > 1 && b < len(g.reuseHist)-1; d >>= 1 {
			b++
		}
		g.reuseHist[b]++
	}
	g.reuseTags[i] = region + 1
	g.reuseSeen[i] = g.reuseSeq
	g.reuseSeq++
}

// Introspect implements prefetch.Introspector: PHT occupancy, the
// streaming-vs-pattern issue mix, and the region-reuse histogram.
func (g *Gaze) Introspect() prefetch.Introspection {
	return prefetch.Introspection{
		PatternEntries:  g.pht.Len(),
		PatternCapacity: g.pht.Sets() * g.pht.Ways(),
		StreamHits:      g.stats.Stage1Full + g.stats.Stage1Half + g.stats.Stage2Promotions,
		PatternHits:     g.stats.PHTHits,
		ReuseHistogram:  g.reuseHist,
	}
}

var (
	_ prefetch.Prefetcher   = (*Gaze)(nil)
	_ prefetch.Introspector = (*Gaze)(nil)
)
