// Package harness regenerates every table and figure of the paper's
// evaluation (§IV) from the simulator: it binds workloads, prefetchers and
// system configurations, runs the simulations through the shared
// experiment engine (memoized, optionally disk-persisted, parallel), and
// formats the same rows/series the paper reports. Experiment.Tables runs
// each artifact as one planned sweep: a dry run of the artifact collects
// the jobs it asks for, one RunAll executes them on every worker, and the
// render reads the results back from the memo.
package harness

import (
	"sort"

	"repro/internal/engine"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Scale bounds experiment cost; see engine.Scale.
type Scale = engine.Scale

// Predefined scales, re-exported from the engine.
var (
	Quick    = engine.Quick
	Standard = engine.Standard
	Full     = engine.Full
)

// Job describes one simulation; see engine.Job.
type Job = engine.Job

// Overrides declaratively perturbs a job's system configuration; see
// engine.Overrides.
type Overrides = engine.Overrides

// Runner layers the paper's experiment vocabulary (suites, speedups,
// sweeps) over an engine.Engine, which supplies memoization, the
// persisted result store, and parallel sweeps.
type Runner struct {
	eng *engine.Engine
	// planned, when set, makes the runner a dry run: Run appends its job
	// here and returns a placeholder instead of simulating.
	planned *[]Job
}

// NewRunner builds a runner at the given scale with in-memory memoization
// only (hermetic — what tests and benchmarks want). Use FromEngine to
// attach a persisted store.
func NewRunner(scale Scale) *Runner {
	return FromEngine(engine.New(engine.Options{Scale: scale}))
}

// FromEngine wraps an existing engine, inheriting its scale, store and
// progress reporting.
func FromEngine(e *engine.Engine) *Runner { return &Runner{eng: e} }

// Engine returns the underlying engine.
func (r *Runner) Engine() *engine.Engine { return r.eng }

// Scale returns the runner's scale.
func (r *Runner) Scale() Scale { return r.eng.Scale() }

// Run executes one job (memoized).
func (r *Runner) Run(j Job) sim.Result {
	if r.planned == nil {
		return r.eng.Run(j)
	}
	*r.planned = append(*r.planned, j)
	// One unit IPC per core: a zero baseline would make Speedup return
	// before it asks for the target job.
	res := sim.Result{Cores: make([]sim.CoreResult, len(j.Traces))}
	for i := range res.Cores {
		res.Cores[i].IPC = 1
	}
	return res
}

// RunAll executes jobs as one engine sweep and returns results in order.
func (r *Runner) RunAll(jobs []Job) []sim.Result { return r.eng.RunAll(jobs) }

// single runs one single-core (trace, prefetcher) pair with the default
// config.
func (r *Runner) single(traceName, pf string) sim.Result {
	return r.Run(Job{Traces: []string{traceName}, L1: []string{pf}})
}

// Speedup returns IPC(pf)/IPC(none) for one trace.
func (r *Runner) Speedup(traceName, pf string) float64 {
	base := r.single(traceName, "none").MeanIPC()
	if base == 0 {
		return 0
	}
	return r.single(traceName, pf).MeanIPC() / base
}

// SuiteTraces returns the evaluated trace names of a suite at this scale.
func (r *Runner) SuiteTraces(suite string) []string {
	infos := workload.Suite(suite)
	names := make([]string, 0, len(infos))
	for _, info := range infos {
		names = append(names, info.Name)
	}
	sort.Strings(names)
	scale := r.Scale()
	if scale.TracesPerSuite > 0 && len(names) > scale.TracesPerSuite {
		// Deterministic spread across the suite rather than a prefix.
		step := len(names) / scale.TracesPerSuite
		picked := make([]string, 0, scale.TracesPerSuite)
		for i := 0; i < scale.TracesPerSuite; i++ {
			picked = append(picked, names[i*step])
		}
		return picked
	}
	return names
}

// MainSuites returns the five suites of the paper's primary evaluation.
func MainSuites() []string {
	return []string{"spec06", "spec17", "ligra", "parsec", "cloud"}
}

// EvalSet returns the union of all main-suite traces at this scale.
func (r *Runner) EvalSet() []string {
	var out []string
	for _, s := range MainSuites() {
		out = append(out, r.SuiteTraces(s)...)
	}
	return out
}

// suiteSpeedups computes per-suite geometric-mean speedups for a
// prefetcher.
func (r *Runner) suiteSpeedup(suite, pf string) float64 {
	var vals []float64
	for _, t := range r.SuiteTraces(suite) {
		vals = append(vals, r.Speedup(t, pf))
	}
	return stats.Geomean(vals)
}
