// Command tracegen writes a named synthetic workload to a trace file —
// native GZTR, ChampSim-style lines, or gzip-wrapped variants — or prints
// its footprint statistics (the §III-C density analysis). The -format
// flag exists so synthetic traces round-trip through the same external
// decoders real captured traces use: a tracegen-exported champsim.gz file
// ingests into the traceset registry exactly like a foreign one.
//
// Usage:
//
//	tracegen -trace PageRank-61 -n 500000 -o pagerank.gztr
//	tracegen -trace lbm-1274 -n 200000 -format champsim.gz -o lbm.champsim.gz
//	tracegen -trace fotonik3d_s-8225 -n 200000 -stats
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	var (
		name      = flag.String("trace", "", "workload trace name")
		n         = flag.Int("n", 200_000, "number of records")
		out       = flag.String("o", "", "output file")
		format    = flag.String("format", "gztr", "output format: gztr | gztr.gz | champsim | champsim.gz")
		showStats = flag.Bool("stats", false, "print footprint statistics instead of writing")
	)
	flag.Parse()
	outFormat, err := trace.ParseFormat(*format)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *name == "" {
		fmt.Fprintln(os.Stderr, "need -trace (run 'gazesim -traces' for the catalogue)")
		os.Exit(1)
	}
	recs, err := workload.Generate(*name, *n)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *showStats {
		st := workload.AnalyzeFootprints(trace.RecSlice(recs))
		fmt.Printf("trace               %s\n", *name)
		fmt.Printf("loads               %d\n", st.Loads)
		fmt.Printf("regions             %d\n", st.Regions)
		fmt.Printf("mean density        %.2f blocks\n", st.MeanDensity)
		fmt.Printf("fully dense         %d\n", st.Dense)
		fmt.Printf("single-block        %d\n", st.SingleBlock)
		fmt.Printf("density histogram   1:%d  2-8:%d  9-32:%d  33-63:%d  64:%d\n",
			st.DensityHistogram[0], st.DensityHistogram[1], st.DensityHistogram[2],
			st.DensityHistogram[3], st.DensityHistogram[4])
		fmt.Printf("trigger ambiguity   %.2f footprints/offset\n", st.TriggerAmbiguity)
		fmt.Println("top PCs:")
		for _, p := range workload.TopPCs(recs, 5) {
			fmt.Printf("  %#x  %.1f%%\n", p.PC, 100*p.Share)
		}
		return
	}

	if *out == "" {
		fmt.Fprintln(os.Stderr, "need -o <file> or -stats")
		os.Exit(1)
	}
	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := writeTrace(f, outFormat, recs); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %d records to %s (%s)\n", len(recs), *out, outFormat)
}

// writeTrace encodes recs to w in the requested format, finalizing the
// stream (gzip footers included).
func writeTrace(w io.Writer, f trace.Format, recs []trace.Record) error {
	return trace.WriteAll(w, f, recs)
}
