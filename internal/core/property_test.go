package core

import (
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/prefetch"
)

// TestPropertyNoPanicsOnRandomStreams drives every variant with arbitrary
// access sequences: no input may panic, and issued requests must stay
// line-aligned and within the addressed region size.
func TestPropertyNoPanicsOnRandomStreams(t *testing.T) {
	variants := []func() *Gaze{
		NewDefault, NewGazePHT, NewPHT4SS, NewSM4SS,
		func() *Gaze { return NewGazeN(1) },
		func() *Gaze { return NewGazeN(3) },
		func() *Gaze { return NewGazeN(4) },
		func() *Gaze { return NewVGaze(512) },
		func() *Gaze { return NewVGaze(65536) },
	}
	for i, mk := range variants {
		mk := mk
		f := func(pcs []uint16, addrs []uint32, evicts []uint32) bool {
			g := mk()
			ok := true
			issue := func(r prefetch.Request) {
				if r.VLine&(mem.LineSize-1) != 0 {
					ok = false
				}
			}
			for j, a := range addrs {
				pc := uint64(0x400000)
				if len(pcs) > 0 {
					pc += uint64(pcs[j%len(pcs)]) * 4
				}
				g.Train(prefetch.Access{PC: pc, VAddr: uint64(a)}, issue)
			}
			for _, e := range evicts {
				g.EvictNotify(uint64(e) &^ (mem.LineSize - 1))
			}
			return ok
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
			t.Errorf("variant %d: %v", i, err)
		}
	}
}

// TestPropertyPBDrainBounded: no single Train call may emit more requests
// than the configured drain bound.
func TestPropertyPBDrainBounded(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PBDrainPerTrain = 3
	f := func(addrs []uint32) bool {
		g := New(cfg)
		for _, a := range addrs {
			n := 0
			g.Train(prefetch.Access{PC: 0x400, VAddr: uint64(a)}, func(prefetch.Request) { n++ })
			if n > 3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestPropertyPHTOnlyMultiAccessPatterns: the PHT never stores a pattern
// learned from fewer distinct accesses than the match length.
func TestPropertyPHTOnlyMultiAccessPatterns(t *testing.T) {
	g := NewDefault()
	none := func(prefetch.Request) {}
	// Alternate single-access regions (filtered) with real patterns.
	for p := uint64(0); p < 300; p++ {
		page := 0x1000 + p
		g.Train(prefetch.Access{PC: 0x1, VAddr: page * mem.PageSize}, none)
		if p%3 == 0 {
			g.Train(prefetch.Access{PC: 0x1, VAddr: page*mem.PageSize + 9*mem.LineSize}, none)
		}
		g.EvictNotify(page * mem.PageSize)
	}
	for set := 0; set < g.pht.Sets(); set++ {
		g.pht.ScanSet(set, func(_ uint64, v *phtEntry) bool {
			if v.bits.popcount() < 2 {
				t.Errorf("PHT holds a %d-bit pattern", v.bits.popcount())
			}
			return true
		})
	}
}

// TestPropertyDenseCounterBounded: the dense counter stays within its
// 3-bit range under arbitrary update sequences.
func TestPropertyDenseCounterBounded(t *testing.T) {
	f := func(ops []bool) bool {
		dc := newDenseCounter()
		for _, inc := range ops {
			if inc {
				dc.increment()
			} else {
				dc.decrement()
			}
			if dc.v < 0 || dc.v > 7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPropertyStorageScalesWithConfig: storage grows monotonically with
// table sizes (a sanity check on the Table I arithmetic).
func TestPropertyStorageScalesWithConfig(t *testing.T) {
	base := NewDefault().TotalStorageBytes()
	bigger := DefaultConfig()
	bigger.PHTEntries = 1024
	if New(bigger).TotalStorageBytes() <= base {
		t.Error("larger PHT did not grow storage")
	}
	smallRegion := DefaultConfig()
	smallRegion.RegionSize = 1024
	if New(smallRegion).TotalStorageBytes() >= base {
		t.Error("smaller region did not shrink storage")
	}
}

// TestVGazeStreamingHeadScales: stage 1's high-aggressiveness head is a
// quarter of the region for every region size.
func TestVGazeStreamingHeadScales(t *testing.T) {
	for _, size := range []int{1024, 4096, 16384} {
		g := NewVGaze(size)
		blocks := size / mem.LineSize
		// Saturate the dense counter.
		for i := 0; i < 10; i++ {
			g.dc.increment()
		}
		var l1Max, l2Min = -1, blocks
		issue := func(r prefetch.Request) {}
		base := uint64(0x7_0000_0000)
		g.Train(prefetch.Access{PC: 0x9, VAddr: base}, issue)
		g.Train(prefetch.Access{PC: 0x9, VAddr: base + mem.LineSize}, issue)
		// Inspect the PB contents directly.
		for _, e := range g.pb.entries {
			for off, st := range e.states {
				if st == pbL1 && off > l1Max {
					l1Max = off
				}
				if st == pbL2 && off < l2Min {
					l2Min = off
				}
			}
		}
		head := blocks / 4
		if l1Max >= head {
			t.Errorf("size %d: L1 head extends to %d, want < %d", size, l1Max, head)
		}
		if l2Min < head {
			t.Errorf("size %d: L2 tail starts at %d, want >= %d", size, l2Min, head)
		}
	}
}
