package harness

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/prefetchers"
	"repro/internal/stats"
)

// Fig01 reproduces Figure 1: speedup of context-based characterization
// schemes on CloudSuite vs SPEC17, annotated with hardware budgets. The
// scheme→implementation mapping follows §II/Fig 1: Offset (naive trigger-
// offset PHT), Offset-opt = PMP, PC-opt = DSPatch, PC+Offset = SMS,
// PC+Addr-opt = Bingo, plus Gaze.
func Fig01(r *Runner) []stats.Table {
	schemes := []struct{ label, pf string }{
		{"Offset", "Offset"},
		{"Offset-opt (PMP)", "PMP"},
		{"PC-opt (DSPatch)", "DSPatch"},
		{"PC+Offset (SMS)", "SMS"},
		{"PC+Addr-opt (Bingo)", "Bingo"},
		{"Gaze", "Gaze"},
	}
	t := stats.Table{
		Title:  "Fig 1: characterization schemes — CloudSuite vs SPEC17 speedup and storage",
		Header: []string{"scheme", "cloud speedup", "spec17 speedup", "storage"},
	}
	for _, s := range schemes {
		p := prefetchers.MustNew(s.pf)
		storage, _ := prefetchers.StorageBytes(p)
		t.AddRow(s.label,
			stats.F(r.suiteSpeedup("cloud", s.pf), 3),
			stats.F(r.suiteSpeedup("spec17", s.pf), 3),
			fmt.Sprintf("%.1fKB", storage/1024))
	}
	return []stats.Table{t}
}

// Fig04 reproduces Figure 4: effect of the number of aligned initial
// accesses (1-4) on IPC, accuracy and coverage across the evaluation set.
func Fig04(r *Runner) []stats.Table {
	t := stats.Table{
		Title:  "Fig 4: number of initial accesses used for matching",
		Note:   "IPC normalized to no prefetching; streaming module disabled (characterization-only, as in the paper's study)",
		Header: []string{"accesses", "norm. IPC", "accuracy", "coverage"},
	}
	traces := r.EvalSet()
	for n := 1; n <= 4; n++ {
		pf := fmt.Sprintf("Gaze-%dacc", n)
		var sp, acc, cov []float64
		for _, tr := range traces {
			res := r.single(tr, pf)
			sp = append(sp, r.Speedup(tr, pf))
			if a := res.Accuracy(); a > 0 {
				acc = append(acc, a)
			}
			cov = append(cov, res.Coverage())
		}
		t.AddRow(fmt.Sprint(n), stats.F(stats.Geomean(sp), 3),
			stats.Pct(stats.Mean(acc)), stats.Pct(stats.Mean(cov)))
	}
	return []stats.Table{t}
}

// Fig06 reproduces Figure 6: single-core speedup of the nine evaluated
// prefetchers per suite plus the overall average.
func Fig06(r *Runner) []stats.Table {
	pfs := prefetchers.EvaluatedNames()
	t := stats.Table{
		Title:  "Fig 6: single-core speedup over no prefetching",
		Header: append([]string{"prefetcher"}, append(MainSuites(), "AVG")...),
	}
	for _, pf := range pfs {
		row := []string{pf}
		var all []float64
		for _, suite := range MainSuites() {
			for _, tr := range r.SuiteTraces(suite) {
				all = append(all, r.Speedup(tr, pf))
			}
			row = append(row, stats.F(r.suiteSpeedup(suite, pf), 3))
		}
		row = append(row, stats.F(stats.Geomean(all), 3))
		t.AddRow(row...)
	}
	return []stats.Table{t}
}

// Fig07 reproduces Figure 7: overall prefetch accuracy per suite.
func Fig07(r *Runner) []stats.Table {
	pfs := prefetchers.EvaluatedNames()
	t := stats.Table{
		Title:  "Fig 7: prefetch accuracy (overall accuracy metric, §IV-A3)",
		Header: append([]string{"prefetcher"}, append(MainSuites(), "AVG")...),
	}
	for _, pf := range pfs {
		row := []string{pf}
		var all []float64
		for _, suite := range MainSuites() {
			var vals []float64
			for _, tr := range r.SuiteTraces(suite) {
				res := r.single(tr, pf)
				if res.IssuedPrefetches() > 0 {
					vals = append(vals, res.Accuracy())
				}
			}
			all = append(all, vals...)
			row = append(row, stats.Pct(stats.Mean(vals)))
		}
		row = append(row, stats.Pct(stats.Mean(all)))
		t.AddRow(row...)
	}
	return []stats.Table{t}
}

// Fig08 reproduces Figure 8: LLC miss coverage and the late-prefetch
// fraction per suite.
func Fig08(r *Runner) []stats.Table {
	pfs := prefetchers.EvaluatedNames()
	cov := stats.Table{
		Title:  "Fig 8a: LLC miss coverage",
		Header: append([]string{"prefetcher"}, append(MainSuites(), "AVG")...),
	}
	late := stats.Table{
		Title:  "Fig 8b: late fraction of useful prefetches",
		Header: append([]string{"prefetcher"}, append(MainSuites(), "AVG")...),
	}
	for _, pf := range pfs {
		covRow, lateRow := []string{pf}, []string{pf}
		var covAll, lateAll []float64
		for _, suite := range MainSuites() {
			var cv, lt []float64
			for _, tr := range r.SuiteTraces(suite) {
				res := r.single(tr, pf)
				cv = append(cv, res.Coverage())
				if res.IssuedPrefetches() > 0 {
					lt = append(lt, res.LateFraction())
				}
			}
			covAll = append(covAll, cv...)
			lateAll = append(lateAll, lt...)
			covRow = append(covRow, stats.Pct(stats.Mean(cv)))
			lateRow = append(lateRow, stats.Pct(stats.Mean(lt)))
		}
		covRow = append(covRow, stats.Pct(stats.Mean(covAll)))
		lateRow = append(lateRow, stats.Pct(stats.Mean(lateAll)))
		cov.AddRow(covRow...)
		late.AddRow(lateRow...)
	}
	return []stats.Table{cov, late}
}

// Fig09 reproduces Figure 9: the Offset / Gaze-PHT / full-Gaze speedup
// spectrum across traces (sorted by full-Gaze speedup, as the paper sorts
// its x-axis by attainable gain).
func Fig09(r *Runner) []stats.Table {
	traces := r.EvalSet()
	type row struct {
		name                  string
		offset, gazePHT, full float64
	}
	rows := make([]row, 0, len(traces))
	for _, tr := range traces {
		rows = append(rows, row{
			name:    tr,
			offset:  r.Speedup(tr, "Offset"),
			gazePHT: r.Speedup(tr, "Gaze-PHT"),
			full:    r.Speedup(tr, "Gaze"),
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].full < rows[j].full })
	t := stats.Table{
		Title:  "Fig 9: pattern characterization ablation (sorted by full-Gaze speedup)",
		Header: []string{"trace", "Offset", "Gaze-PHT", "Full Gaze"},
	}
	var o, g, f []float64
	for _, rw := range rows {
		o = append(o, rw.offset)
		g = append(g, rw.gazePHT)
		f = append(f, rw.full)
		t.AddRow(rw.name, stats.F(rw.offset, 3), stats.F(rw.gazePHT, 3), stats.F(rw.full, 3))
	}
	t.AddRow("AVG", stats.F(stats.Geomean(o), 3), stats.F(stats.Geomean(g), 3), stats.F(stats.Geomean(f), 3))
	return []stats.Table{t}
}

// Ablation isolates the two design choices §III-B and §III-C argue for
// on a trace chosen to show each: strict two-access matching raises
// accuracy where trigger offsets are ambiguous (fotonik3d_s-8225, Fig 2),
// and the dedicated streaming module adds speedup on an interleaved
// graph-compute trace (PageRank-61).
func Ablation(r *Runner) []stats.Table {
	t := stats.Table{
		Title:  "Ablation: strict two-access matching and the streaming module",
		Header: []string{"design choice", "trace", "variants", "metric", "without", "with", "gain"},
	}
	const ambiguous = "fotonik3d_s-8225"
	off := r.single(ambiguous, "Offset").Accuracy()
	strict := r.single(ambiguous, "Gaze-PHT").Accuracy()
	t.AddRow("strict matching", ambiguous, "Offset vs Gaze-PHT", "accuracy",
		stats.Pct(off), stats.Pct(strict), stats.Pct(strict-off))
	const graph = "PageRank-61"
	pht, full := r.Speedup(graph, "Gaze-PHT"), r.Speedup(graph, "Gaze")
	t.AddRow("streaming module", graph, "Gaze-PHT vs Gaze", "speedup",
		stats.F(pht, 3), stats.F(full, 3), stats.F(full-pht, 3))
	return []stats.Table{t}
}

// fig10Traces are the streaming-representative workloads of Figure 10:
// per Ligra workload one init-phase and one compute-phase trace.
var fig10Traces = []string{
	"bwaves-1963", "cactusADM-1804", "leslie3d-271", "wrf-816",
	"gcc_s-1850", "wrf_s-8065", "pop2_s-17", "roms_s-523",
	"streamcluster-5", "facesim-22", "nutch-p3c1", "nutch-p4c2",
	"PageRank-1", "PageRank-61", "PageRank.D-3", "PageRank.D-52",
	"BC-4", "BC-27", "BellmanFord-4", "BellmanFord-34",
	"Components-4", "Components-24", "Components.S-4", "Components.S-21",
}

// Fig10 reproduces Figure 10: naive-PHT streaming (PHT4SS) vs the
// dedicated streaming module (SM4SS) vs full Gaze.
func Fig10(r *Runner) []stats.Table {
	t := stats.Table{
		Title:  "Fig 10: streaming-module ablation (streaming-only operation)",
		Header: []string{"trace", "PHT4SS", "SM4SS", "Gaze"},
	}
	var a, b, c []float64
	for _, tr := range fig10Traces {
		s1 := r.Speedup(tr, "PHT4SS")
		s2 := r.Speedup(tr, "SM4SS")
		s3 := r.Speedup(tr, "Gaze")
		a, b, c = append(a, s1), append(b, s2), append(c, s3)
		t.AddRow(tr, stats.F(s1, 3), stats.F(s2, 3), stats.F(s3, 3))
	}
	t.AddRow("AVG", stats.F(stats.Geomean(a), 3), stats.F(stats.Geomean(b), 3), stats.F(stats.Geomean(c), 3))
	return []stats.Table{t}
}

// fig11Traces are Figure 11's representative traces.
var fig11Traces = []string{
	"milc-127", "cactusADM-1804", "leslie3d-149", "soplex-247",
	"GemsFDTD-1169", "GemsFDTD-1211", "libquantum-714", "libquantum-1343",
	"lbm-1274", "sphinx3-417", "wrf-196", "BFS.B-18", "BC-27",
	"BellmanFord-25", "BFS-17", "BFSCC-17", "CF-185", "Components-24",
	"Components.S-22", "MIS-17", "PageRank-80", "PageRank.D-24",
	"Triangle-4", "canneal-1", "facesim-2", "streamcluster-5",
	"cassandra-p0c0", "cloud9-p5c2", "nutch-p0c0", "stream-p1c0",
	"gcc_s-734", "gcc_s-2226", "bwaves_s-1740", "mcf_s-665", "mcf_s-1536",
	"cactuBSSN_s-3477", "lbm_s-2676", "omnetpp_s-141", "xalancbmk_s-10",
	"xalancbmk_s-202", "cam4_s-490", "pop2_s-17", "fotonik3d_s-8225",
	"fotonik3d_s-10881", "roms_s-294", "roms_s-523",
}

// Fig11 reproduces Figure 11: per-trace speedups of vBerti, PMP and Gaze
// plus category averages.
func Fig11(r *Runner) []stats.Table {
	t := stats.Table{
		Title:  "Fig 11: representative traces — vBerti vs PMP vs Gaze",
		Header: []string{"trace", "vBerti", "PMP", "Gaze"},
	}
	pfs := []string{"vBerti", "PMP", "Gaze"}
	sums := map[string][]float64{}
	spec17 := map[string][]float64{}
	cloud := map[string][]float64{}
	for _, tr := range fig11Traces {
		row := []string{tr}
		for _, pf := range pfs {
			s := r.Speedup(tr, pf)
			row = append(row, stats.F(s, 3))
			sums[pf] = append(sums[pf], s)
			if isSpec17Trace(tr) {
				spec17[pf] = append(spec17[pf], s)
			}
			if isCloudTrace(tr) {
				cloud[pf] = append(cloud[pf], s)
			}
		}
		t.AddRow(row...)
	}
	for _, avg := range []struct {
		label string
		m     map[string][]float64
	}{{"avg_all", sums}, {"avg_cloud", cloud}, {"avg_spec17", spec17}} {
		row := []string{avg.label}
		for _, pf := range pfs {
			row = append(row, stats.F(stats.Geomean(avg.m[pf]), 3))
		}
		t.AddRow(row...)
	}
	return []stats.Table{t}
}

func isSpec17Trace(name string) bool { return strings.Contains(name, "_s-") }

func isCloudTrace(name string) bool {
	for _, app := range []string{"cassandra", "cloud9", "nutch", "stream-", "classification"} {
		if strings.Contains(name, app) {
			return true
		}
	}
	return false
}

// Table5 reproduces Table V: the qualitative comparison grid, derived from
// measured behaviour (storage budget, streaming-subset speedup, cloud-
// subset speedup).
func Table5(r *Runner) []stats.Table {
	t := stats.Table{
		Title:  "Table V: prefetcher comparison (✔ = strong, ✘ = weak; derived from measurements)",
		Header: []string{"prefetcher", "hardware cost", "simple pattern (streaming)", "complex pattern (cloud)"},
	}
	streamingSubset := []string{"lbm-1274", "bwaves_s-2609", "leslie3d-134", "roms_s-523"}
	mark := func(ok bool) string {
		if ok {
			return "✔"
		}
		return "✘"
	}
	for _, pf := range []string{"Gaze", "vBerti", "PMP", "Bingo"} {
		p := prefetchers.MustNew(pf)
		storage, _ := prefetchers.StorageBytes(p)
		var strm []float64
		for _, tr := range streamingSubset {
			strm = append(strm, r.Speedup(tr, pf))
		}
		cloudSp := r.suiteSpeedup("cloud", pf)
		t.AddRow(pf,
			mark(storage < 10*1024)+fmt.Sprintf(" (%.1fKB)", storage/1024),
			mark(stats.Geomean(strm) > 1.25)+fmt.Sprintf(" (%.2f)", stats.Geomean(strm)),
			mark(cloudSp > 1.05)+fmt.Sprintf(" (%.2f)", cloudSp))
	}
	return []stats.Table{t}
}
