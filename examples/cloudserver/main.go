// Cloud server: the Fig 1 / Fig 2 motivation on a CloudSuite-style
// workload. Server traces have many recurring footprint patterns whose
// trigger offsets collide, so offset-keyed characterization (PMP) merges
// unrelated patterns while Gaze's (trigger, second) key separates them.
//
//	go run ./examples/cloudserver
package main

import (
	"fmt"
	"log"

	"repro/internal/prefetchers"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	const name = "cassandra-p0c0"

	// First, show the workload property that defeats coarse keying.
	recs, err := workload.Generate(name, 150_000)
	if err != nil {
		log.Fatal(err)
	}
	st := workload.AnalyzeFootprints(trace.RecSlice(recs))
	fmt.Printf("workload %s: %d regions, mean footprint density %.1f blocks\n",
		name, st.Regions, st.MeanDensity)
	fmt.Printf("trigger ambiguity: %.1f distinct footprints per trigger offset\n", st.TriggerAmbiguity)
	fmt.Println("(every trigger offset maps to many different patterns — the")
	fmt.Println(" situation of Fig 2, where only the second access disambiguates)")
	fmt.Println()

	// Then compare the offset-keyed and temporally-keyed prefetchers.
	fmt.Printf("%-10s %9s %10s %10s %10s\n", "prefetcher", "speedup", "accuracy", "coverage", "issued")
	base := run(name, "none")
	for _, pf := range []string{"Offset", "PMP", "DSPatch", "SMS", "Bingo", "Gaze"} {
		res := run(name, pf)
		fmt.Printf("%-10s %8.3fx %9.1f%% %9.1f%% %10d\n",
			pf, res.MeanIPC()/base.MeanIPC(),
			100*res.Accuracy(), 100*res.Coverage(), res.IssuedPrefetches())
	}
	fmt.Println()
	fmt.Println("Coarse context keys (Offset, PMP per-offset merging, DSPatch per-PC)")
	fmt.Println("collide on server patterns; the footprint-internal temporal key")
	fmt.Println("(trigger offset indexed, second offset tagged) stays accurate at a")
	fmt.Println("fraction of Bingo/SMS's >100KB storage.")
}

func run(name, pf string) sim.Result {
	cfg := sim.DefaultConfig(1)
	cfg.WarmupInstructions = 100_000
	cfg.SimInstructions = 400_000
	recs, err := workload.Generate(name, 150_000)
	if err != nil {
		log.Fatal(err)
	}
	p, err := prefetchers.New(pf)
	if err != nil {
		log.Fatal(err)
	}
	sys, err := sim.New(cfg, []sim.CoreSpec{{
		Trace:        trace.NewLooping(trace.NewSliceReader(recs)),
		L1Prefetcher: p,
	}})
	if err != nil {
		log.Fatal(err)
	}
	return sys.Run()
}
