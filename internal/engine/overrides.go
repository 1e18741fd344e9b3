package engine

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// Overrides declaratively perturbs the default Table II system
// configuration for one job. Every field is a plain value — no functions
// — so a Job carrying Overrides serializes to JSON, travels over HTTP,
// and content-addresses into the persisted result store. The zero value
// means "default configuration"; a zero field leaves that knob at its
// default (consequently a knob cannot be overridden *to* zero — none of
// the modelled knobs has a meaningful zero).
//
// The first three fields are exactly the paper's Fig 16 sensitivity axes.
type Overrides struct {
	// LLCMBPerCore resizes the shared LLC, in megabytes per core
	// (Fig 16b). Fractional sizes (0.5) are supported.
	LLCMBPerCore float64 `json:"llc_mb_per_core,omitempty"`
	// L2KB resizes the per-core L2C, in kilobytes (Fig 16c).
	L2KB int `json:"l2_kb,omitempty"`
	// DRAMMTPS sets the DRAM transfer rate, in mega-transfers per second
	// (Fig 16a).
	DRAMMTPS int `json:"dram_mtps,omitempty"`
	// PQCapacity and PQDrainRate bound the per-core prefetch queue.
	PQCapacity  int     `json:"pq_capacity,omitempty"`
	PQDrainRate float64 `json:"pq_drain_rate,omitempty"`
	// WarmupInstructions and SimInstructions replace the engine scale's
	// per-core instruction budgets.
	WarmupInstructions uint64 `json:"warmup_instructions,omitempty"`
	SimInstructions    uint64 `json:"sim_instructions,omitempty"`
}

// Override bounds. Jobs come in over HTTP, so every knob is range-checked:
// the lower bounds keep the simulated system constructible (cache geometry
// collapses below them) and the upper bounds keep one request from wedging
// the process with an absurdly large or long simulation.
const (
	minLLCMBPerCore, maxLLCMBPerCore = 0.125, 64.0
	minL2KB, maxL2KB                 = 16, 16384
	minDRAMMTPS, maxDRAMMTPS         = 100, 51200
	minPQCapacity, maxPQCapacity     = 1, 4096
	maxPQDrainRate                   = 64.0
	maxInstructions                  = 50_000_000
)

// IsZero reports whether every knob is at its default.
func (o Overrides) IsZero() bool { return o == Overrides{} }

// Validate reports the first out-of-range knob. Field names in errors
// match the JSON encoding, so HTTP clients see the spelling they sent.
func (o Overrides) Validate() error {
	switch {
	// NaN compares false with everything, so the range checks below would
	// pass it through to a json.Marshal failure in CanonicalJSON.
	case math.IsNaN(o.LLCMBPerCore) || math.IsNaN(o.PQDrainRate):
		return fmt.Errorf("engine: llc_mb_per_core / pq_drain_rate must not be NaN")
	case o.LLCMBPerCore != 0 && (o.LLCMBPerCore < minLLCMBPerCore || o.LLCMBPerCore > maxLLCMBPerCore):
		return fmt.Errorf("engine: llc_mb_per_core = %g out of range [%g, %g]",
			o.LLCMBPerCore, minLLCMBPerCore, maxLLCMBPerCore)
	case o.L2KB != 0 && (o.L2KB < minL2KB || o.L2KB > maxL2KB):
		return fmt.Errorf("engine: l2_kb = %d out of range [%d, %d]", o.L2KB, minL2KB, maxL2KB)
	case o.DRAMMTPS != 0 && (o.DRAMMTPS < minDRAMMTPS || o.DRAMMTPS > maxDRAMMTPS):
		return fmt.Errorf("engine: dram_mtps = %d out of range [%d, %d]", o.DRAMMTPS, minDRAMMTPS, maxDRAMMTPS)
	case o.PQCapacity != 0 && (o.PQCapacity < minPQCapacity || o.PQCapacity > maxPQCapacity):
		return fmt.Errorf("engine: pq_capacity = %d out of range [%d, %d]", o.PQCapacity, minPQCapacity, maxPQCapacity)
	case o.PQDrainRate != 0 && (o.PQDrainRate < 0 || o.PQDrainRate > maxPQDrainRate):
		return fmt.Errorf("engine: pq_drain_rate = %g out of range (0, %g]", o.PQDrainRate, maxPQDrainRate)
	case o.WarmupInstructions > maxInstructions:
		return fmt.Errorf("engine: warmup_instructions = %d exceeds the limit of %d", o.WarmupInstructions, maxInstructions)
	case o.SimInstructions > maxInstructions:
		return fmt.Errorf("engine: sim_instructions = %d exceeds the limit of %d", o.SimInstructions, maxInstructions)
	}
	return nil
}

// Apply returns cfg with every non-zero knob applied.
func (o Overrides) Apply(cfg sim.Config) sim.Config {
	if o.LLCMBPerCore != 0 {
		cfg = cfg.WithLLCSizeMB(o.LLCMBPerCore)
	}
	if o.L2KB != 0 {
		cfg = cfg.WithL2SizeKB(o.L2KB)
	}
	if o.DRAMMTPS != 0 {
		cfg = cfg.WithDRAMMTPS(o.DRAMMTPS)
	}
	if o.PQCapacity != 0 {
		cfg.PQCapacity = o.PQCapacity
	}
	if o.PQDrainRate != 0 {
		cfg.PQDrainRate = o.PQDrainRate
	}
	if o.WarmupInstructions != 0 {
		cfg.WarmupInstructions = o.WarmupInstructions
	}
	if o.SimInstructions != 0 {
		cfg.SimInstructions = o.SimInstructions
	}
	return cfg
}

// EffectiveBudgets returns the per-core warmup and sim instruction counts
// a job with these overrides actually runs at a scale: an overridden
// budget replaces the scale's. This single rule feeds both the canonical
// encoding (so pinned-budget jobs share cache entries across scales) and
// the server's request-work caps.
func (o Overrides) EffectiveBudgets(scale Scale) (warmup, sim uint64) {
	warmup, sim = scale.Warmup, scale.Sim
	if o.WarmupInstructions != 0 {
		warmup = o.WarmupInstructions
	}
	if o.SimInstructions != 0 {
		sim = o.SimInstructions
	}
	return warmup, sim
}

// SweepParams lists the knobs WithParam accepts — the enumerable axes a
// sensitivity sweep (Fig 16, POST /sweep) can walk.
func SweepParams() []string {
	return []string{"llc_mb_per_core", "l2_kb", "dram_mtps", "pq_capacity", "pq_drain_rate"}
}

// WithParam returns a copy with the named knob set to value, validating
// the result. Integer knobs reject fractional values instead of silently
// truncating, and zero is rejected for every knob — a zero field means
// "default", so accepting it would label a default-config run as the
// swept point. Param names match the Overrides JSON encoding.
func (o Overrides) WithParam(param string, value float64) (Overrides, error) {
	if value == 0 {
		return o, fmt.Errorf("engine: %s = 0 is not sweepable (zero means default)", param)
	}
	integral := func() (int, error) {
		if value != math.Trunc(value) {
			return 0, fmt.Errorf("engine: %s = %g must be an integer", param, value)
		}
		return int(value), nil
	}
	var err error
	switch param {
	case "llc_mb_per_core":
		o.LLCMBPerCore = value
	case "l2_kb":
		o.L2KB, err = integral()
	case "dram_mtps":
		o.DRAMMTPS, err = integral()
	case "pq_capacity":
		o.PQCapacity, err = integral()
	case "pq_drain_rate":
		o.PQDrainRate = value
	default:
		return o, fmt.Errorf("engine: unknown sweep param %q (want one of %v)", param, SweepParams())
	}
	if err != nil {
		return o, err
	}
	return o, o.Validate()
}
