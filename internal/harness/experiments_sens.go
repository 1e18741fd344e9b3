package harness

import (
	"fmt"

	"repro/internal/stats"
)

// Fig12 reproduces Figure 12: GAP and QMM (server/client) speedups for the
// three main prefetchers.
func Fig12(r *Runner) []stats.Table {
	pfs := []string{"vBerti", "PMP", "Gaze"}
	gap := stats.Table{
		Title:  "Fig 12a: GAP speedups",
		Header: append([]string{"trace"}, pfs...),
	}
	var gapAvg = map[string][]float64{}
	for _, tr := range r.SuiteTraces("gap") {
		row := []string{tr}
		for _, pf := range pfs {
			s := r.Speedup(tr, pf)
			gapAvg[pf] = append(gapAvg[pf], s)
			row = append(row, stats.F(s, 3))
		}
		gap.AddRow(row...)
	}
	row := []string{"avg_gap"}
	for _, pf := range pfs {
		row = append(row, stats.F(stats.Geomean(gapAvg[pf]), 3))
	}
	gap.AddRow(row...)

	qmm := stats.Table{
		Title:  "Fig 12b: QMM speedups (server then client)",
		Header: append([]string{"trace"}, pfs...),
	}
	for _, suite := range []string{"qmm.srv", "qmm.clt"} {
		avg := map[string][]float64{}
		for _, tr := range r.SuiteTraces(suite) {
			row := []string{tr}
			for _, pf := range pfs {
				s := r.Speedup(tr, pf)
				avg[pf] = append(avg[pf], s)
				row = append(row, stats.F(s, 3))
			}
			qmm.AddRow(row...)
		}
		row := []string{"avg_" + suite}
		for _, pf := range pfs {
			row = append(row, stats.F(stats.Geomean(avg[pf]), 3))
		}
		qmm.AddRow(row...)
	}
	return []stats.Table{gap, qmm}
}

// fig16Prefetchers are the six prefetchers of the sensitivity study.
var fig16Prefetchers = []string{"SPP-PPF", "vBerti", "Bingo", "DSPatch", "PMP", "Gaze"}

// Fig16 reproduces Figure 16: sensitivity to DRAM bandwidth, LLC size and
// L2C size (single-core, geometric mean over the evaluation set).
func Fig16(r *Runner) []stats.Table {
	traces := r.sensTraces()

	speedup := func(pf string, o Overrides) float64 {
		var vals []float64
		for _, tr := range traces {
			base := r.Run(Job{Traces: []string{tr}, L1: []string{"none"}, Overrides: o}).MeanIPC()
			res := r.Run(Job{Traces: []string{tr}, L1: []string{pf}, Overrides: o}).MeanIPC()
			if base > 0 {
				vals = append(vals, res/base)
			}
		}
		return stats.Geomean(vals)
	}

	bw := stats.Table{
		Title:  "Fig 16a: sensitivity to DRAM bandwidth (MTPS)",
		Header: []string{"prefetcher", "800", "1600", "3200", "6400", "12800"},
	}
	for _, pf := range fig16Prefetchers {
		row := []string{pf}
		for _, mtps := range []int{800, 1600, 3200, 6400, 12800} {
			row = append(row, stats.F(speedup(pf, Overrides{DRAMMTPS: mtps}), 3))
		}
		bw.AddRow(row...)
	}

	llc := stats.Table{
		Title:  "Fig 16b: sensitivity to LLC size (MB per core)",
		Header: []string{"prefetcher", "0.5", "1", "2", "4", "8"},
	}
	for _, pf := range fig16Prefetchers {
		row := []string{pf}
		for _, mb := range []float64{0.5, 1, 2, 4, 8} {
			row = append(row, stats.F(speedup(pf, Overrides{LLCMBPerCore: mb}), 3))
		}
		llc.AddRow(row...)
	}

	l2 := stats.Table{
		Title:  "Fig 16c: sensitivity to L2C size (KB per core)",
		Header: []string{"prefetcher", "128", "256", "512", "1024", "1536"},
	}
	for _, pf := range fig16Prefetchers {
		row := []string{pf}
		for _, kb := range []int{128, 256, 512, 1024, 1536} {
			row = append(row, stats.F(speedup(pf, Overrides{L2KB: kb}), 3))
		}
		l2.AddRow(row...)
	}
	return []stats.Table{bw, llc, l2}
}

// sensTraces is the reduced trace set used for configuration sweeps.
func (r *Runner) sensTraces() []string {
	return []string{
		"lbm-1274", "bwaves_s-2609", "fotonik3d_s-8225", "mcf_s-1554",
		"PageRank-61", "cassandra-p0c0",
	}
}

// fig17Traces is the per-trace panel of Figures 17 and 18.
var fig17Traces = []string{
	"bwaves-1963", "lbm-1274", "omnetpp-188", "wrf-1254", "gcc_s-2226",
	"mcf_s-484", "xalancbmk_s-202", "pop2_s-17", "fotonik3d_s-7084",
	"roms_s-1070", "PageRank-1", "PageRank-61", "BellmanFord-4",
	"BellmanFord-34", "streamcluster-5",
}

// Fig17 reproduces Figure 17: Gaze's sensitivity to region size
// (0.5-4KB) and PHT size (128-1024 entries), normalized to the baseline
// configuration (4KB region, 256-entry PHT).
func Fig17(r *Runner) []stats.Table {
	region := r.gazeVariantPanel("Fig 17a: sensitivity to region size (speedup normalized to 4KB)",
		[]string{"trace", "0.5KB", "1KB", "2KB", "4KB"}, []int{512, 1024, 2048, 4096}, 4096, vGazeName)
	pht := r.gazeVariantPanel("Fig 17b: sensitivity to PHT size (speedup normalized to 256 entries)",
		[]string{"trace", "128", "256", "512", "1024"}, []int{128, 256, 512, 1024}, 256,
		func(n int) string { return fmt.Sprintf("Gaze-PHT%d", n) })
	return []stats.Table{region, pht}
}

// Fig18 reproduces Figure 18: vGaze with large (huge-page) regions,
// normalized to the 4KB baseline.
func Fig18(r *Runner) []stats.Table {
	return []stats.Table{r.gazeVariantPanel("Fig 18: vGaze with large regions (normalized to 4KB)",
		[]string{"trace", "4KB", "8KB", "16KB", "32KB", "64KB"}, []int{4096, 8192, 16384, 32768, 65536}, 4096, vGazeName)}
}

// vGazeName names the vGaze variant with a region of the given bytes.
func vGazeName(regionBytes int) string { return fmt.Sprintf("vGaze-%dB", regionBytes) }

// gazeVariantPanel renders one row per fig17Traces trace: the speedup of
// the Gaze variant variant(v) for each value v, normalized to full Gaze's
// (which is the variant at value gaze), plus a geomean AVG row.
func (r *Runner) gazeVariantPanel(title string, header []string, values []int, gaze int, variant func(int) string) stats.Table {
	t := stats.Table{Title: title, Header: header}
	sums := make([][]float64, len(values))
	for _, tr := range fig17Traces {
		base := r.Speedup(tr, "Gaze")
		row := []string{tr}
		for i, v := range values {
			s := base
			if v != gaze {
				s = r.Speedup(tr, variant(v))
			}
			norm := 0.0
			if base > 0 {
				norm = s / base
			}
			sums[i] = append(sums[i], norm)
			row = append(row, stats.F(norm, 3))
		}
		t.AddRow(row...)
	}
	avgRow := []string{"AVG"}
	for i := range values {
		avgRow = append(avgRow, stats.F(stats.Geomean(sums[i]), 3))
	}
	t.AddRow(avgRow...)
	return t
}
