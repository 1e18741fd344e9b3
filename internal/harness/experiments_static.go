package harness

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/prefetchers"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Table1 reproduces Table I: Gaze's per-structure storage breakdown,
// computed from the structure geometry.
func Table1(_ *Runner) []stats.Table {
	g := core.NewDefault()
	t := stats.Table{
		Title:  "Table I: Gaze storage requirements",
		Header: []string{"structure", "description", "storage"},
	}
	var total float64
	for _, item := range g.StorageBreakdown() {
		t.AddRow(item.Structure, item.Description, fmt.Sprintf("%.0fB", item.Bytes()))
		total += item.Bytes()
	}
	t.AddRow("Total", "", fmt.Sprintf("%.2fKB", total/1024))
	return []stats.Table{t}
}

// Table4 reproduces Table IV: configuration and storage overhead of the
// evaluated prefetchers.
func Table4(_ *Runner) []stats.Table {
	t := stats.Table{
		Title:  "Table IV: evaluated prefetchers — configuration and storage",
		Header: []string{"prefetcher", "configuration", "storage"},
	}
	configs := []struct{ name, cfg string }{
		{"SMS", "2KB region, 64-entry FT/AT, 16k-entry PHT, fast access"},
		{"Bingo", "2KB region, 64-entry FT/AT, 16k-entry PHT, fast access"},
		{"DSPatch", "2KB region, 64-entry PageBuffer, 256-entry SPT"},
		{"PMP", "4KB region, 64-entry FT/AT, 64-entry OPT, 32-entry PPT, MaxConf 32, L1/L2 thresh 0.5/0.15"},
		{"IPCP-L1", "64-entry IP table, 128-entry CSPT"},
		{"SPP-PPF", "per [Bhatia et al. 2019]"},
		{"vBerti", "virtual address, eight-page prefetch range"},
		{"Gaze", "4KB region, 64-entry FT/AT, 256-entry PHT, 8-entry DPCT, 32-entry PB"},
	}
	for _, c := range configs {
		p := prefetchers.MustNew(c.name)
		storage, _ := prefetchers.StorageBytes(p)
		t.AddRow(c.name, c.cfg, fmt.Sprintf("%.2fKB", storage/1024))
	}
	return []stats.Table{t}
}

// Fig02 reproduces the Figure 2 motivation quantitatively: the footprint
// structure of a fotonik3d-like workload — regions whose trigger offsets
// collide but whose first-two-access order disambiguates the pattern.
func Fig02(r *Runner) []stats.Table {
	t := stats.Table{
		Title:  "Fig 2 (motivation): footprint structure of representative traces",
		Note:   "TriggerAmbiguity = distinct footprints observed per trigger offset; >1 defeats offset-only keying",
		Header: []string{"trace", "regions", "mean density", "dense", "1-block", "trigger ambiguity"},
	}
	for _, tr := range []string{"fotonik3d_s-8225", "lbm-1274", "mcf_s-1554", "cassandra-p0c0", "PageRank-61"} {
		// The process-wide slab, not a fresh generation: Tables renders
		// twice (plan, then render) and the sims share the slab too.
		recs, err := workload.MaterializeRecords(tr, r.Scale().TraceLen)
		if err != nil {
			panic(err)
		}
		st := workload.AnalyzeFootprints(recs)
		t.AddRow(tr,
			fmt.Sprint(st.Regions),
			stats.F(st.MeanDensity, 1),
			fmt.Sprint(st.Dense),
			fmt.Sprint(st.SingleBlock),
			stats.F(st.TriggerAmbiguity, 2))
	}
	return []stats.Table{t}
}
