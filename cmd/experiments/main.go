// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -list
//	experiments -run fig6
//	experiments -run all -scale quick
//
// Scales: quick (smoke test), standard (default), full (entire catalogue,
// longer traces). Results print as aligned text tables — the same rows and
// series the paper's figures plot.
//
// Simulation results persist in a content-addressed store (-cache-dir,
// default $GAZE_CACHE_DIR or the user cache dir), so re-running an
// experiment — or running a different experiment that shares jobs — does
// near-zero simulation work. -no-cache keeps everything in memory.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/profiling"
)

func main() {
	var (
		list       = flag.Bool("list", false, "list available experiments")
		run        = flag.String("run", "", "experiment id to run, or 'all'")
		scale      = flag.String("scale", "standard", "quick | standard | full")
		cacheDir   = flag.String("cache-dir", "", "result store directory (default: $GAZE_CACHE_DIR or the user cache dir)")
		noCache    = flag.Bool("no-cache", false, "disable the persisted result store")
		progress   = flag.Bool("progress", true, "report sweep progress and ETA on stderr")
		workers    = flag.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
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

	if *list || *run == "" {
		fmt.Println("available experiments:")
		for _, e := range harness.Experiments() {
			fmt.Printf("  %-7s %s\n", e.ID, e.Description)
		}
		if *run == "" && !*list {
			fmt.Println("\nuse -run <id> or -run all")
		}
		return
	}

	sc, err := engine.ScaleByName(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	opts := engine.Options{Scale: sc, Workers: *workers}
	if !*noCache {
		store, err := engine.Open(*cacheDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		opts.Store = store
	}
	if *progress {
		opts.Progress = engine.StderrProgress
	}
	eng := engine.New(opts)
	runner := harness.FromEngine(eng)

	var exps []harness.Experiment
	if *run == "all" {
		exps = harness.Experiments()
	} else {
		e, err := harness.Find(*run)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		exps = []harness.Experiment{e}
	}

	for _, e := range exps {
		start := time.Now()
		tables := e.Tables(runner)
		for _, t := range tables {
			t.Fprint(os.Stdout)
		}
		fmt.Printf("[%s completed in %v]\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}

	c := eng.Counters()
	fmt.Fprintf(os.Stderr, "engine: %d simulated, %d from store, %d from memo\n",
		c.Simulated, c.StoreHits, c.MemoHits)
}
