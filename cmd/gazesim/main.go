// Command gazesim runs one simulation: a workload (or every workload of a
// suite) against one prefetcher, printing IPC, speedup and the prefetch
// metrics of §IV-A3.
//
// Usage:
//
//	gazesim -trace bwaves_s-2609 -prefetcher Gaze
//	gazesim -suite cloud -prefetcher PMP -cores 4
//	gazesim -trace lbm-1274 -prefetcher Gaze -mtps 1600 -llc-mb 1
//	gazesim -trace-dir ~/traces -trace ingested:<address> -prefetcher Gaze
//	gazesim -traces  (list the catalogue)
//
// With -trace-dir, traces ingested by gazetrace (or gazeserve's POST
// /traces) run by their `ingested:<address>` names; the trace's content
// digest folds into the shared result-store keys, so registry runs cache
// soundly across entry points too.
//
// The -mtps, -llc-mb, -l2-kb and -pq flags perturb the Table II system
// through declarative engine.Overrides — the paper's Fig 16 sensitivity
// axes — and cache soundly across entry points.
//
// gazesim shares the experiment engine's persisted result store with
// cmd/experiments and gazeserve, so repeating a run — at any entry point —
// is instant. -no-cache opts out.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/engine"
	"repro/internal/profiling"
	"repro/internal/traceset"
	"repro/internal/workload"
)

func main() {
	var (
		traceName  = flag.String("trace", "", "workload trace name")
		suite      = flag.String("suite", "", "run every trace of a suite")
		pf         = flag.String("prefetcher", "Gaze", "prefetcher name (see internal/prefetchers)")
		l2pf       = flag.String("l2", "", "optional L2 prefetcher")
		cores      = flag.Int("cores", 1, "number of cores (same trace on each)")
		length     = flag.Int("len", 200_000, "records generated per trace")
		warmup     = flag.Uint64("warmup", 200_000, "warm-up instructions per core")
		instr      = flag.Uint64("instr", 800_000, "measured instructions per core")
		mtps       = flag.Int("mtps", 0, "override DRAM MTPS (Fig 16a)")
		llcMB      = flag.Float64("llc-mb", 0, "override LLC size, MB per core (Fig 16b)")
		l2KB       = flag.Int("l2-kb", 0, "override per-core L2C size in KB (Fig 16c)")
		pq         = flag.Int("pq", 0, "override prefetch-queue capacity")
		telEvery   = flag.Uint64("telemetry-interval", 0, "sample interval telemetry every N measured instructions per core (0 = disabled; never changes results or cache keys)")
		telOut     = flag.String("telemetry-out", "", "write each run's interval-timeline document (JSON) to this path (suite runs write <path>.<trace>)")
		cacheDir   = flag.String("cache-dir", "", "result store directory (default: $GAZE_CACHE_DIR or the user cache dir)")
		noCache    = flag.Bool("no-cache", false, "disable the persisted result store")
		traceDir   = flag.String("trace-dir", "", "ingested-trace registry directory (enables -trace ingested:<address>)")
		traceCache = flag.Int64("trace-cache-mb", 2048, "materialized-trace cache budget in MB (0 = unbounded)")
		listTraces = flag.Bool("traces", false, "list the workload catalogue")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	stopProfiles, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer stopProfiles()

	if *traceCache > 0 {
		workload.SetTraceCacheBudget(*traceCache << 20)
	}
	var reg *traceset.Registry
	if *traceDir != "" {
		reg, err = traceset.Open(*traceDir, traceset.Options{})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		workload.RegisterSource(reg)
	}

	if *listTraces {
		for _, info := range workload.Catalogue() {
			fmt.Printf("%-8s %s\n", info.Suite, info.Name)
		}
		if reg != nil {
			for _, m := range reg.List() {
				fmt.Printf("%-8s %s\n", "ingested", m.Name())
			}
		}
		return
	}

	names := []string{*traceName}
	if *suite != "" {
		names = names[:0]
		for _, info := range workload.Suite(*suite) {
			names = append(names, info.Name)
		}
		if len(names) == 0 {
			fmt.Fprintf(os.Stderr, "unknown suite %q\n", *suite)
			os.Exit(1)
		}
	} else if *traceName == "" {
		fmt.Fprintln(os.Stderr, "need -trace or -suite (or -traces to list)")
		os.Exit(1)
	}

	// The default system scales the shared LLC by the core count, and
	// cache geometry must stay a power of two.
	if *cores < 1 || *cores&(*cores-1) != 0 {
		fmt.Fprintf(os.Stderr, "-cores must be a power of two >= 1 (got %d)\n", *cores)
		os.Exit(1)
	}
	// A zero TraceLen would make the engine silently substitute the whole
	// Standard scale, discarding the -warmup/-instr flags.
	if *length < 1 || *instr < 1 {
		fmt.Fprintln(os.Stderr, "-len and -instr must be >= 1")
		os.Exit(1)
	}

	if *telOut != "" && *telEvery == 0 {
		fmt.Fprintln(os.Stderr, "-telemetry-out requires -telemetry-interval > 0")
		os.Exit(1)
	}
	opts := engine.Options{
		Scale:             engine.Scale{TraceLen: *length, Warmup: *warmup, Sim: *instr},
		TelemetryInterval: *telEvery,
	}
	// Suite runs can take minutes; report sweep progress like
	// cmd/experiments does so the terminal isn't silent until the end.
	if len(names) > 1 {
		opts.Progress = engine.StderrProgress
	}
	if !*noCache {
		store, err := engine.Open(*cacheDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		opts.Store = store
	}
	eng := engine.New(opts)

	// Every sensitivity flag maps to one field of the declarative
	// Overrides, so the scenario serializes into the engine's cache keys
	// with no hand-maintained config naming.
	overrides := engine.Overrides{
		DRAMMTPS:     *mtps,
		LLCMBPerCore: *llcMB,
		L2KB:         *l2KB,
		PQCapacity:   *pq,
	}

	// Batch every (baseline, prefetcher) pair of the whole invocation
	// through one shard-parallel sweep, then print rows in order.
	var jobs []engine.Job
	for _, name := range names {
		base, target := jobsFor(name, *pf, *l2pf, *cores, overrides)
		// Job.Validate is the engine's canonical invariant (traces exist,
		// prefetcher names construct, overrides in range); the engine
		// panics on jobs that skip it.
		if err := target.Validate(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		jobs = append(jobs, base, target)
	}
	results := eng.RunAll(jobs)

	for i, name := range names {
		base, res := results[2*i], results[2*i+1]
		fmt.Printf("%-20s %-10s IPC %.3f  speedup %.3f  accuracy %.1f%%  coverage %.1f%%  late %.1f%%  issued %d\n",
			name, *pf, res.MeanIPC(), engine.Speedup(res, base),
			100*res.Accuracy(), 100*res.Coverage(), 100*res.LateFraction(),
			res.IssuedPrefetches())
	}

	if *telOut != "" {
		scale := eng.Scale()
		for i, name := range names {
			target := jobs[2*i+1]
			doc, ok := eng.Telemetry(target.ContentAddress(scale))
			if !ok {
				// Telemetry exists only for runs computed this invocation —
				// a store or memo hit replays the result without simulating.
				fmt.Fprintf(os.Stderr, "gazesim: no timeline for %s (cached result; re-run with -no-cache to simulate)\n", name)
				continue
			}
			path := *telOut
			if len(names) > 1 {
				path = *telOut + "." + name
			}
			if err := engine.WriteFileAtomic(path, doc); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "gazesim: timeline for %s written to %s\n", name, path)
		}
	}
}

// jobsFor builds the no-prefetch baseline and the target job for one
// trace, replicated across cores.
func jobsFor(name, pf, l2pf string, cores int, o engine.Overrides) (base, target engine.Job) {
	traces := make([]string, cores)
	for i := range traces {
		traces[i] = name
	}
	target = engine.Job{Traces: traces, L1: []string{pf}, Overrides: o}
	if l2pf != "" {
		target.L2 = []string{l2pf}
	}
	return target.Baseline(), target
}
