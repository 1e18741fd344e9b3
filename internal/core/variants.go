package core

// This file defines the named Gaze variants used by the paper's ablation
// experiments (Fig 4, Fig 9, Fig 10, Fig 17, Fig 18).

// NewDefault returns the full Gaze at the paper's design point.
func NewDefault() *Gaze { return New(DefaultConfig()) }

// NewGazeN returns the Fig 4 variant that requires the first n accesses to
// align (spatially and temporally) before predicting. The streaming module
// and backup are disabled so the figure isolates pattern characterization,
// matching the paper's methodology for that study.
func NewGazeN(n int) *Gaze {
	cfg := DefaultConfig()
	cfg.MatchAccesses = n
	cfg.StreamingModule = false
	cfg.StrideBackup = false
	if n == 1 {
		// Trigger-offset-only: the paper uses a direct 64-entry table.
		cfg.PHTEntries, cfg.PHTWays = 64, 1
	}
	return New(cfg)
}

// NewGazePHT returns "Gaze-PHT" (Fig 9): two-access characterization only,
// with the streaming module and stride backup disabled.
func NewGazePHT() *Gaze {
	cfg := DefaultConfig()
	cfg.StreamingModule = false
	cfg.StrideBackup = false
	return New(cfg)
}

// NewPHT4SS returns the Fig 10 ablation that handles spatial streaming
// naively through the PHT, operating only on streaming regions.
func NewPHT4SS() *Gaze {
	cfg := DefaultConfig()
	cfg.StreamingModule = false
	cfg.StrideBackup = false
	cfg.StreamingOnly = true
	return New(cfg)
}

// NewSM4SS returns the Fig 10 ablation that uses the dedicated streaming
// module (DPCT + DC + two-stage control), operating only on streaming
// regions.
func NewSM4SS() *Gaze {
	cfg := DefaultConfig()
	cfg.StreamingOnly = true
	return New(cfg)
}

// NewVGaze returns virtual Gaze with an arbitrary power-of-two region size
// (Fig 17a: 0.5-4KB, Fig 18: 4-64KB). Gaze already operates on virtual
// addresses at the L1D, so no extra architectural support is modelled.
func NewVGaze(regionBytes int) *Gaze {
	cfg := DefaultConfig()
	cfg.RegionSize = regionBytes
	return New(cfg)
}

// NewWithPHTEntries returns Gaze with a resized PHT (Fig 17b).
func NewWithPHTEntries(entries int) *Gaze {
	cfg := DefaultConfig()
	cfg.PHTEntries = entries
	return New(cfg)
}
