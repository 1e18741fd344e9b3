package harness

import (
	"fmt"
	"sort"

	"repro/internal/stats"
)

// Experiment regenerates one paper table or figure.
type Experiment struct {
	// ID is the short identifier ("fig6", "tab1", ...).
	ID string
	// Description summarizes what the paper artifact shows.
	Description string
	// Run produces the result tables.
	Run func(*Runner) []stats.Table
}

// Experiments returns the full registry, ordered by ID.
func Experiments() []Experiment {
	exps := []Experiment{
		{"fig1", "Characterization schemes: CloudSuite vs SPEC17 speedup + storage", Fig01},
		{"fig2", "Motivation: footprint structure and trigger-offset ambiguity", Fig02},
		{"fig4", "Number of initial accesses used for matching (1-4)", Fig04},
		{"fig6", "Single-core speedup per suite, nine prefetchers", Fig06},
		{"fig7", "Overall prefetch accuracy per suite", Fig07},
		{"fig8", "LLC coverage and late-prefetch fraction per suite", Fig08},
		{"fig9", "Characterization ablation: Offset vs Gaze-PHT vs full Gaze", Fig09},
		{"fig10", "Streaming-module ablation: PHT4SS vs SM4SS vs Gaze", Fig10},
		{"fig11", "Representative traces: vBerti vs PMP vs Gaze", Fig11},
		{"fig12", "GAP and QMM supplements", Fig12},
		{"fig13", "Multi-level prefetching combinations", Fig13},
		{"fig14", "Multi-core homogeneous and heterogeneous speedups", Fig14},
		{"fig15", "Four-core Table VI mixes, per-core speedups", Fig15},
		{"fig16", "Sensitivity to DRAM bandwidth, LLC and L2C sizes", Fig16},
		{"fig17", "Gaze region-size and PHT-size sensitivity", Fig17},
		{"fig18", "vGaze with large (huge-page) regions", Fig18},
		{"tab1", "Gaze storage breakdown", Table1},
		{"tab4", "Evaluated prefetcher configurations and storage", Table4},
		{"tab5", "Qualitative comparison grid", Table5},
	}
	sort.Slice(exps, func(i, j int) bool { return exps[i].ID < exps[j].ID })
	return exps
}

// plan dry-runs the experiment and returns every job its render asks for.
func (e Experiment) plan(r *Runner) []Job {
	var jobs []Job
	e.Run(&Runner{eng: r.eng, planned: &jobs})
	return jobs
}

// Tables renders the experiment as one planned sweep: its jobs run in one
// RunAll on every worker, then the render reads them from the memo. A job
// the dry run misses still runs correctly at render time, only serially.
func (e Experiment) Tables(r *Runner) []stats.Table {
	r.RunAll(e.plan(r))
	return e.Run(r)
}

// Find returns the experiment with the given ID.
func Find(id string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("harness: unknown experiment %q", id)
}
