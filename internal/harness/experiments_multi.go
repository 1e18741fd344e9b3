package harness

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/stats"
)

// Fig13 reproduces Figure 13: multi-level prefetching. Group 1 combines an
// L1 prefetcher with an L2 prefetcher; Group 2 uses the commercial
// IP-stride at L1 with the same L2 prefetchers.
func Fig13(r *Runner) []stats.Table {
	l1s := []string{"vBerti", "PMP", "DSPatch", "IPCP-L1", "Gaze"}
	l2s := []string{"SPP-PPF", "Bingo"}
	traces := r.EvalSet()

	speedup := func(l1, l2 string) float64 {
		var vals []float64
		for _, tr := range traces {
			base := r.Run(Job{Traces: []string{tr}, L1: []string{"none"}}).MeanIPC()
			res := r.Run(Job{Traces: []string{tr}, L1: []string{l1}, L2: []string{l2}})
			if base > 0 {
				vals = append(vals, res.MeanIPC()/base)
			}
		}
		return stats.Geomean(vals)
	}

	g1 := stats.Table{
		Title:  "Fig 13 (Group 1): L1+L2 prefetcher combinations, norm. IPC",
		Header: []string{"combination", "speedup"},
	}
	for _, l1 := range l1s {
		for _, l2 := range l2s {
			g1.AddRow(l1+"+"+l2, stats.F(speedup(l1, l2), 3))
		}
	}
	g1.AddRow("Gaze alone (L1)", stats.F(speedup("Gaze", ""), 3))

	g2 := stats.Table{
		Title:  "Fig 13 (Group 2): IP-stride at L1 + L2 prefetcher",
		Header: []string{"combination", "speedup"},
	}
	for _, l2 := range append(l2s, "vBerti", "SMS", "DSPatch", "PMP", "Gaze") {
		g2.AddRow("IP-stride+"+l2, stats.F(speedup("IP-stride", l2), 3))
	}
	return []stats.Table{g1, g2}
}

// fig14Prefetchers are the six prefetchers of the multi-core comparison.
var fig14Prefetchers = []string{"SPP-PPF", "vBerti", "Bingo", "DSPatch", "PMP", "Gaze"}

// Fig14 reproduces Figure 14: homogeneous and heterogeneous multi-core
// speedups for 1-8 cores.
func Fig14(r *Runner) []stats.Table {
	coreCounts := []int{1, 2, 4, 8}
	traces := r.homoTraces()

	homo := stats.Table{
		Title:  "Fig 14a: homogeneous multi-core speedup",
		Header: append([]string{"prefetcher"}, coreLabels(coreCounts)...),
	}
	for _, pf := range fig14Prefetchers {
		row := []string{pf}
		for _, n := range coreCounts {
			var vals []float64
			for _, tr := range traces {
				mix := repeat(tr, n)
				base := r.Run(Job{Traces: mix, L1: []string{"none"}}).MeanIPC()
				res := r.Run(Job{Traces: mix, L1: []string{pf}}).MeanIPC()
				if base > 0 {
					vals = append(vals, res/base)
				}
			}
			row = append(row, stats.F(stats.Geomean(vals), 3))
		}
		homo.AddRow(row...)
	}

	hetero := stats.Table{
		Title:  "Fig 14b: heterogeneous multi-core speedup (random mixes)",
		Header: append([]string{"prefetcher"}, coreLabels(coreCounts)...),
	}
	for _, pf := range fig14Prefetchers {
		row := []string{pf}
		for _, n := range coreCounts {
			mixes := r.heteroMixes(n, 3)
			var vals []float64
			for _, mix := range mixes {
				base := r.Run(Job{Traces: mix, L1: []string{"none"}}).MeanIPC()
				res := r.Run(Job{Traces: mix, L1: []string{pf}}).MeanIPC()
				if base > 0 {
					vals = append(vals, res/base)
				}
			}
			row = append(row, stats.F(stats.Geomean(vals), 3))
		}
		hetero.AddRow(row...)
	}
	return []stats.Table{homo, hetero}
}

// homoTraces picks the homogeneous-mix trace set at this scale.
func (r *Runner) homoTraces() []string {
	picks := []string{"lbm-1274", "bwaves_s-2609", "PageRank-61", "cassandra-p0c0", "mcf_s-1554", "leslie3d-134"}
	if s := r.Scale(); s.TracesPerSuite > 0 && s.TracesPerSuite < 3 {
		picks = picks[:4]
	}
	return picks
}

// heteroMixes draws deterministic random mixes of n traces each.
func (r *Runner) heteroMixes(n, count int) [][]string {
	pool := r.EvalSet()
	src := rng.NewFromString(fmt.Sprintf("hetero-mixes-%d", n))
	mixes := make([][]string, count)
	for i := range mixes {
		mix := make([]string, n)
		for j := range mix {
			mix[j] = pool[src.Intn(len(pool))]
		}
		mixes[i] = mix
	}
	return mixes
}

func repeat(s string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = s
	}
	return out
}

func coreLabels(counts []int) []string {
	out := make([]string, len(counts))
	for i, c := range counts {
		out[i] = fmt.Sprintf("%d-core", c)
	}
	return out
}

// tableVIMixes are the paper's selected four-core mixes (Table VI).
var tableVIMixes = map[string][]string{
	"mix1": {"wrf-1254", "Triangle-1", "lbm_s-2676", "Triangle-6"},
	"mix2": {"GemsFDTD-1211", "PageRank-19", "BFS.B-5", "BFS-5"},
	"mix3": {"bwaves_s-2609", "BFSCC-1", "wrf_s-8065", "astar-359"},
	"mix4": {"PageRank.D-24", "bwaves-1963", "PageRank-61", "facesim-22"},
	"mix5": {"cassandra-p0c0", "cassandra-p0c1", "cassandra-p0c2", "cassandra-p0c3"},
}

// Fig15 reproduces Figure 15: per-core speedups on the Table VI four-core
// heterogeneous mixes for vBerti, PMP and Gaze.
func Fig15(r *Runner) []stats.Table {
	t := stats.Table{
		Title:  "Fig 15: four-core heterogeneous mixes (Table VI), per-core speedup",
		Header: []string{"mix", "core", "vBerti", "PMP", "Gaze"},
	}
	pfs := []string{"vBerti", "PMP", "Gaze"}
	for _, mixName := range []string{"mix1", "mix2", "mix3", "mix4", "mix5"} {
		mix := tableVIMixes[mixName]
		base := r.Run(Job{Traces: mix, L1: []string{"none"}})
		results := make(map[string][]float64)
		for _, pf := range pfs {
			res := r.Run(Job{Traces: mix, L1: []string{pf}})
			for c := range mix {
				ratio := 0.0
				if base.Cores[c].IPC > 0 {
					ratio = res.Cores[c].IPC / base.Cores[c].IPC
				}
				results[pf] = append(results[pf], ratio)
			}
		}
		for c := range mix {
			row := []string{mixName, fmt.Sprintf("c%d", c)}
			for _, pf := range pfs {
				row = append(row, stats.F(results[pf][c], 3))
			}
			t.AddRow(row...)
		}
		row := []string{mixName, "avg"}
		for _, pf := range pfs {
			row = append(row, stats.F(stats.Mean(results[pf]), 3))
		}
		t.AddRow(row...)
	}
	return []stats.Table{t}
}
