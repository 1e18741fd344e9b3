package core

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/prefetch"
)

// TestFig2Scenario encodes the paper's Figure 2 walkthrough directly:
//
// Regions A and C share a footprint AND its internal access order; region
// B differs in both. All four regions' trigger accesses are aligned (same
// trigger offset), so trigger-only characterization faces a conflict when
// region D activates. After D's second access matches B's order, Gaze can
// make a high-confidence prediction of B's remaining footprint — and must
// NOT predict A/C's.
func TestFig2Scenario(t *testing.T) {
	g := NewDefault()
	issueTo := func(c *collect) prefetch.IssueFunc { return c.issue }
	teach := &collect{}

	const trigger = 12
	// A and C: trigger, then 20, then the rest {28, 36}.
	orderAC := []int{trigger, 20, 28, 36}
	// B: same trigger, different second and different tail {50, 58}.
	orderB := []int{trigger, 44, 50, 58}

	pages := map[string]uint64{"A": 0x100, "B": 0x200, "C": 0x300}
	play := func(page uint64, order []int) {
		for _, off := range order {
			g.Train(prefetch.Access{
				PC:    0xfeed,
				VAddr: page*mem.PageSize + uint64(off)*mem.LineSize,
			}, issueTo(teach))
		}
		g.EvictNotify(page * mem.PageSize) // deactivate: pattern learned
	}
	play(pages["A"], orderAC)
	play(pages["B"], orderB)
	play(pages["C"], orderAC)

	// Region D activates with B's internal order: trigger, then 44.
	d := &collect{}
	pageD := uint64(0x400)
	g.Train(prefetch.Access{PC: 0xfeed, VAddr: pageD*mem.PageSize + trigger*mem.LineSize}, d.issue)
	g.Train(prefetch.Access{PC: 0xfeed, VAddr: pageD*mem.PageSize + 44*mem.LineSize}, d.issue)
	// Drain the prefetch buffer.
	for i := 0; i < 32; i++ {
		g.Train(prefetch.Access{PC: 0x1, VAddr: (0x9000 + uint64(i)) * mem.PageSize}, d.issue)
	}

	got := d.lines()
	base := pageD * mem.PageSize
	// B's tail must be predicted...
	for _, off := range []int{50, 58} {
		if _, ok := got[base+uint64(off)*mem.LineSize]; !ok {
			t.Errorf("Fig 2: block %d of B's pattern not prefetched for D", off)
		}
	}
	// ...and A/C's tail must not (that is the conflict Offset-keying
	// cannot resolve).
	for _, off := range []int{20, 28, 36} {
		if _, ok := got[base+uint64(off)*mem.LineSize]; ok {
			t.Errorf("Fig 2: conflicting block %d (A/C pattern) prefetched for D", off)
		}
	}

	// Control: the Offset-only variant cannot disambiguate — trained the
	// same way, its single 64-set PHT holds whichever pattern was learned
	// last for this trigger, so its prediction for D is order-blind.
	off1 := NewGazeN(1)
	teach2 := &collect{}
	playVariant := func(gz *Gaze, page uint64, order []int) {
		for _, off := range order {
			gz.Train(prefetch.Access{PC: 0xfeed, VAddr: page*mem.PageSize + uint64(off)*mem.LineSize}, teach2.issue)
		}
		gz.EvictNotify(page * mem.PageSize)
	}
	playVariant(off1, pages["A"], orderAC)
	playVariant(off1, pages["B"], orderB)
	playVariant(off1, pages["C"], orderAC) // most recent for this trigger: A/C pattern
	d2 := &collect{}
	off1.Train(prefetch.Access{PC: 0xfeed, VAddr: pageD*mem.PageSize + trigger*mem.LineSize}, d2.issue)
	for i := 0; i < 32; i++ {
		off1.Train(prefetch.Access{PC: 0x1, VAddr: (0xa000 + uint64(i)) * mem.PageSize}, d2.issue)
	}
	got2 := d2.lines()
	// The offset-only prediction fires at the trigger with the stale A/C
	// pattern even though D is about to follow B — a mispredict.
	if _, ok := got2[base+20*mem.LineSize]; !ok {
		t.Error("control: Offset variant did not fire the conflicting pattern")
	}
}
