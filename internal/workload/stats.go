package workload

import (
	"math/bits"
	"sort"

	"repro/internal/mem"
	"repro/internal/trace"
)

// FootprintStats summarizes the spatial-region structure of a trace —
// the numbers behind the paper's §III-C observation that streaming
// footprints are extremely dense while interleaved irregular footprints
// are nearly empty.
// The JSON tags are part of the traceset registry's manifest schema.
type FootprintStats struct {
	// Regions is the number of distinct 4KB regions touched.
	Regions int `json:"regions"`
	// SingleBlock counts regions whose footprint has exactly one block
	// (what the Filter Table exists to discard).
	SingleBlock int `json:"single_block"`
	// Dense counts fully-dense regions (all 64 blocks touched).
	Dense int `json:"dense"`
	// MeanDensity is the average touched-block count per region.
	MeanDensity float64 `json:"mean_density"`
	// DensityHistogram buckets regions by footprint popcount:
	// [1], [2-8], [9-32], [33-63], [64].
	DensityHistogram [5]int `json:"density_histogram"`
	// TriggerAmbiguity is the mean number of distinct observed footprints
	// per trigger offset (>1 means the trigger offset alone cannot
	// identify the pattern — the weakness of Offset/PMP keying).
	TriggerAmbiguity float64 `json:"trigger_ambiguity"`
	// Loads is the number of load records inspected.
	Loads int `json:"loads"`
}

// AnalyzeFootprints replays records and reconstructs per-region footprints
// plus first-two-access ordering statistics.
func AnalyzeFootprints(recs trace.Records) FootprintStats {
	type regionInfo struct {
		bits    uint64
		trigger int
		second  int
		count   int
	}
	regions := make(map[uint64]*regionInfo)
	var st FootprintStats
	for i := 0; i < recs.Len(); i++ {
		r := recs.At(i)
		if r.Kind != trace.Load {
			continue
		}
		st.Loads++
		page := mem.PageNum(mem.Addr(r.Addr))
		off := mem.BlockOffset(mem.Addr(r.Addr))
		ri := regions[page]
		if ri == nil {
			ri = &regionInfo{trigger: off, second: -1}
			regions[page] = ri
		}
		if ri.bits&(1<<uint(off)) == 0 && ri.count == 1 && off != ri.trigger {
			ri.second = off
		}
		if ri.bits&(1<<uint(off)) == 0 {
			ri.count++
		}
		ri.bits |= 1 << uint(off)
	}

	st.Regions = len(regions)
	if st.Regions == 0 {
		return st
	}
	totalDensity := 0
	// footprintsPerTrigger collects distinct footprints per trigger offset.
	footprintsPerTrigger := make(map[int]map[uint64]bool)
	for _, ri := range regions {
		d := bits.OnesCount64(ri.bits)
		totalDensity += d
		switch {
		case d == 1:
			st.SingleBlock++
			st.DensityHistogram[0]++
		case d <= 8:
			st.DensityHistogram[1]++
		case d <= 32:
			st.DensityHistogram[2]++
		case d <= 63:
			st.DensityHistogram[3]++
		default:
			st.Dense++
			st.DensityHistogram[4]++
		}
		m := footprintsPerTrigger[ri.trigger]
		if m == nil {
			m = make(map[uint64]bool)
			footprintsPerTrigger[ri.trigger] = m
		}
		m[ri.bits] = true
	}
	st.MeanDensity = float64(totalDensity) / float64(st.Regions)
	if len(footprintsPerTrigger) > 0 {
		total := 0
		for _, m := range footprintsPerTrigger {
			total += len(m)
		}
		st.TriggerAmbiguity = float64(total) / float64(len(footprintsPerTrigger))
	}
	return st
}

// TopPCs returns the most frequent load PCs in a trace with their shares,
// a quick profile of code-footprint concentration.
func TopPCs(recs []trace.Record, k int) []PCShare {
	counts := make(map[uint64]int)
	loads := 0
	for _, r := range recs {
		if r.Kind == trace.Load {
			counts[r.PC]++
			loads++
		}
	}
	out := make([]PCShare, 0, len(counts))
	for pc, c := range counts {
		out = append(out, PCShare{PC: pc, Share: float64(c) / float64(loads)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Share != out[j].Share {
			return out[i].Share > out[j].Share
		}
		return out[i].PC < out[j].PC
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// PCShare pairs a load PC with its share of all loads.
type PCShare struct {
	PC    uint64
	Share float64
}
