// Interval-sampled simulation telemetry (DESIGN.md §11). A run with
// Config.TelemetryInterval > 0 records, per core, one IntervalSample
// every N *measured* instructions: IPC, demand MPKI per cache level,
// prefetch issue/usefulness/timeliness, prefetch-queue occupancy and the
// DRAM row-hit rate over that window, plus a final prefetcher
// characterization snapshot through the prefetch.Introspector seam.
//
// Telemetry is derived data: collecting it never perturbs the simulation
// (sampling reads counters the run maintains anyway) and never enters a
// content address — the same job produces byte-identical results with
// telemetry on or off. The collection discipline is boundary-only: the
// steady-state step loop pays exactly one integer compare per record
// (against a MaxUint64 sentinel when disabled), and all sample storage is
// preallocated at construction so the measured window allocates nothing.
package sim

import (
	"math"

	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/prefetch"
)

// DefaultTelemetryInterval is the sampling interval services arm by
// default: fine enough to resolve phase behaviour inside the Standard
// scale's 400k-instruction measurement window, coarse enough that a
// timeline document stays a few KB.
const DefaultTelemetryInterval = 50_000

// telemetryDisabled is the boundary sentinel: a core whose telNext holds
// it never samples, so the disabled case costs one always-false compare.
const telemetryDisabled = math.MaxUint64

// IntervalSample is one per-core telemetry row covering the half-open
// measured-instruction window [Start, End). Counters are deltas over the
// window; PQOccupancy is instantaneous at the sample boundary. The rows
// of a core partition its measurement window exactly, so every counter
// column sums to the run's CoreResult value.
type IntervalSample struct {
	Start uint64 `json:"start"`
	End   uint64 `json:"end"`
	// IPC is instructions per cycle over the window.
	IPC float64 `json:"ipc"`
	// L1MPKI/L2MPKI/LLCMPKI are demand misses per kilo-instruction at
	// each level. LLC misses are the shared cache's, windowed by this
	// core's boundaries.
	L1MPKI  float64 `json:"l1_mpki"`
	L2MPKI  float64 `json:"l2_mpki"`
	LLCMPKI float64 `json:"llc_mpki"`
	// PrefetchesIssued counts requests injected into the memory system
	// (both fill levels); Useful/Late mirror the cache attribution.
	PrefetchesIssued uint64 `json:"prefetches_issued"`
	UsefulPrefetches uint64 `json:"useful_prefetches"`
	LatePrefetches   uint64 `json:"late_prefetches"`
	// Accuracy is useful/(useful+useless) over the window; Coverage is
	// covered/(covered+LLC demand misses) — the paper's metrics (§IV-A3)
	// per interval instead of per run.
	Accuracy float64 `json:"accuracy"`
	Coverage float64 `json:"coverage"`
	// PQOccupancy is the prefetch-queue depth at the boundary (both
	// queues when an L2 prefetcher is attached).
	PQOccupancy int `json:"pq_occupancy"`
	// DRAMRowHitRate is row hits over requests in the window.
	DRAMRowHitRate float64 `json:"dram_row_hit_rate"`
}

// CoreTelemetry is one core's timeline plus its prefetcher's final
// characterization snapshot (nil when the prefetcher does not implement
// prefetch.Introspector).
type CoreTelemetry struct {
	Prefetcher    string                  `json:"prefetcher"`
	Samples       []IntervalSample        `json:"samples"`
	Introspection *prefetch.Introspection `json:"introspection,omitempty"`
}

// Telemetry is a full run's collected timelines.
type Telemetry struct {
	// Interval is the sampling interval in measured instructions.
	Interval uint64          `json:"interval"`
	Cores    []CoreTelemetry `json:"cores"`
}

// telSnapshot is the counter baseline of a core's current interval: the
// values of everything a sample differences, captured at the previous
// boundary. The shared LLC/DRAM counters are snapshotted per core so
// each core's rows window the shared resources by its own boundaries.
type telSnapshot struct {
	instructions uint64
	cycles       float64
	l1, l2, llc  cache.Stats
	issuedL1     uint64
	issuedL2     uint64
	dram         dram.Stats
}

// telemetryPrealloc sizes a core's sample slice so boundary appends
// never allocate for any sane interval; pathological intervals (one
// sample per instruction on a huge budget) fall back to append growth,
// which still only happens at boundaries.
func telemetryPrealloc(cfg Config) int {
	n := cfg.SimInstructions/cfg.TelemetryInterval + 2
	if n > 1<<16 {
		n = 1 << 16
	}
	return int(n)
}

// telemetryRecord closes core c's current interval: it emits one row of
// counter deltas since the previous boundary and re-baselines. Called
// from Run at interval boundaries and once, post-FlushStats, when the
// core completes — so the final (possibly partial) row includes the
// end-of-run useless-prefetch sweep and the rows sum to the CoreResult.
func (s *System) telemetryRecord(c *coreState) {
	cur := telSnapshot{
		instructions: c.core.MeasuredInstructions(),
		cycles:       c.core.Cycles(),
		l1:           c.l1.Stats,
		l2:           c.l2.Stats,
		llc:          s.llc.Stats,
		issuedL1:     c.issuedL1,
		issuedL2:     c.issuedL2,
		dram:         s.dram.Stats,
	}
	prev := &c.telPrev
	row := IntervalSample{Start: prev.instructions, End: cur.instructions}
	dInstr := cur.instructions - prev.instructions
	if dc := cur.cycles - prev.cycles; dc > 0 {
		row.IPC = float64(dInstr) / dc
	}
	if dInstr > 0 {
		k := 1000 / float64(dInstr)
		row.L1MPKI = float64(cur.l1.DemandMisses-prev.l1.DemandMisses) * k
		row.L2MPKI = float64(cur.l2.DemandMisses-prev.l2.DemandMisses) * k
		row.LLCMPKI = float64(cur.llc.DemandMisses-prev.llc.DemandMisses) * k
	}
	row.PrefetchesIssued = (cur.issuedL1 + cur.issuedL2) - (prev.issuedL1 + prev.issuedL2)
	useful := (cur.l1.UsefulPrefetches + cur.l2.UsefulPrefetches) -
		(prev.l1.UsefulPrefetches + prev.l2.UsefulPrefetches)
	useless := (cur.l1.UselessPrefetches + cur.l2.UselessPrefetches) -
		(prev.l1.UselessPrefetches + prev.l2.UselessPrefetches)
	row.UsefulPrefetches = useful
	row.LatePrefetches = (cur.l1.LatePrefetches + cur.l2.LatePrefetches) -
		(prev.l1.LatePrefetches + prev.l2.LatePrefetches)
	if useful+useless > 0 {
		row.Accuracy = float64(useful) / float64(useful+useless)
	}
	covered := (cur.l1.CoveredMisses + cur.l2.CoveredMisses) -
		(prev.l1.CoveredMisses + prev.l2.CoveredMisses)
	llcMisses := cur.llc.DemandMisses - prev.llc.DemandMisses
	if covered+llcMisses > 0 {
		row.Coverage = float64(covered) / float64(covered+llcMisses)
	}
	row.PQOccupancy = c.pq.Len()
	if c.pq2 != nil {
		row.PQOccupancy += c.pq2.Len()
	}
	if dr := cur.dram.Requests - prev.dram.Requests; dr > 0 {
		row.DRAMRowHitRate = float64(cur.dram.RowHits-prev.dram.RowHits) / float64(dr)
	}
	c.telSamples = append(c.telSamples, row)
	c.telPrev = cur
}

// Telemetry assembles the collected timelines after Run, or nil when
// collection was disabled.
func (s *System) Telemetry() *Telemetry {
	if s.cfg.TelemetryInterval == 0 {
		return nil
	}
	t := &Telemetry{Interval: s.cfg.TelemetryInterval}
	for _, c := range s.cores {
		ct := CoreTelemetry{Prefetcher: c.pf.Name(), Samples: c.telSamples}
		if ct.Samples == nil {
			ct.Samples = []IntervalSample{}
		}
		if c.intro != nil {
			in := c.intro.Introspect()
			ct.Introspection = &in
		}
		t.Cores = append(t.Cores, ct)
	}
	return t
}
