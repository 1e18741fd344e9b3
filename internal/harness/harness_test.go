package harness

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/stats"
)

// testRunner is shared across tests (memoization keeps the suite fast).
var testRunner = NewRunner(Quick)

func cell(t stats.Table, rowKey string, col int) float64 {
	for _, row := range t.Rows {
		if row[0] == rowKey {
			s := strings.TrimSuffix(row[col], "%")
			s = strings.TrimSuffix(s, "KB")
			v, _ := strconv.ParseFloat(s, 64)
			return v
		}
	}
	return -1
}

func TestRegistryComplete(t *testing.T) {
	// Every paper artifact listed in DESIGN.md §3 must have an experiment.
	want := []string{
		"fig1", "fig2", "fig4", "fig6", "fig7", "fig8", "fig9", "fig10",
		"fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
		"fig18", "tab1", "tab4", "tab5", "ablation",
	}
	for _, id := range want {
		if _, err := Find(id); err != nil {
			t.Errorf("experiment %s missing: %v", id, err)
		}
	}
	if _, err := Find("fig99"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunnerMemoization(t *testing.T) {
	r := NewRunner(Quick)
	j := Job{Traces: []string{"leslie3d-134"}, L1: []string{"Gaze"}}
	a := r.Run(j)
	b := r.Run(j)
	if a.MeanIPC() != b.MeanIPC() {
		t.Error("memoized results differ")
	}
}

func TestSuiteTracesRespectScale(t *testing.T) {
	r := NewRunner(Quick) // 2 per suite
	for _, suite := range MainSuites() {
		traces := r.SuiteTraces(suite)
		if len(traces) == 0 || len(traces) > 2 {
			t.Errorf("suite %s: %d traces at quick scale", suite, len(traces))
		}
	}
	full := NewRunner(Scale{TracesPerSuite: 0, TraceLen: 1000, Warmup: 1, Sim: 1000})
	if n := len(full.SuiteTraces("ligra")); n != 67 {
		t.Errorf("full ligra = %d traces, want 67", n)
	}
}

func TestSpeedupSanity(t *testing.T) {
	// Gaze on a streaming trace must show a clear speedup.
	if s := testRunner.Speedup("lbm-1274", "Gaze"); s < 1.3 {
		t.Errorf("Gaze on lbm speedup = %.3f, want > 1.3", s)
	}
	// And must be ~neutral on a pointer chase (strict matching).
	if s := testRunner.Speedup("mcf_s-1554", "Gaze"); s < 0.9 || s > 1.1 {
		t.Errorf("Gaze on mcf speedup = %.3f, want ~1.0", s)
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	tables := Table1(testRunner)
	if len(tables) != 1 {
		t.Fatalf("Table1 returned %d tables", len(tables))
	}
	if v := cell(tables[0], "Total", 2); v < 4.4 || v > 4.5 {
		t.Errorf("Gaze total storage = %.2fKB, want 4.46KB", v)
	}
}

func TestTable4HasAllPrefetchers(t *testing.T) {
	tb := Table4(testRunner)[0]
	if len(tb.Rows) != 8 {
		t.Errorf("Table IV rows = %d, want 8", len(tb.Rows))
	}
}

func TestFig02ShowsAmbiguityContrast(t *testing.T) {
	tb := Fig02(testRunner)[0]
	fotonik := cell(tb, "fotonik3d_s-8225", 5)
	lbm := cell(tb, "lbm-1274", 5)
	if fotonik <= lbm {
		t.Errorf("fotonik ambiguity %.2f <= lbm %.2f", fotonik, lbm)
	}
}

// TestPaperShapeFig6 checks the headline qualitative results of the
// paper's main figure at quick scale: Gaze leads the average, and the
// fine-grained prefetchers beat the coarse-grained ones on cloud.
func TestPaperShapeFig6(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	tb := Fig06(testRunner)[0]
	avgCol := len(tb.Header) - 1
	gaze := cell(tb, "Gaze", avgCol)
	for _, pf := range []string{"PMP", "vBerti", "SMS", "Bingo", "DSPatch", "IP-stride", "IPCP-L1", "SPP-PPF"} {
		if v := cell(tb, pf, avgCol); v >= gaze {
			t.Errorf("%s avg speedup %.3f >= Gaze %.3f", pf, v, gaze)
		}
	}
	// Cloud column: Gaze and Bingo must beat PMP (Fig 1/Fig 6's point).
	cloudCol := 5
	if cell(tb, "Gaze", cloudCol) <= cell(tb, "PMP", cloudCol) {
		t.Error("Gaze does not beat PMP on cloud")
	}
	if cell(tb, "Bingo", cloudCol) <= cell(tb, "PMP", cloudCol) {
		t.Error("Bingo does not beat PMP on cloud")
	}
}

func TestPaperShapeFig4(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	tb := Fig04(testRunner)[0]
	// Accuracy must increase monotonically with match length (paper:
	// 56% → 75% → 87% → 90%).
	prev := -1.0
	for _, n := range []string{"1", "2", "3", "4"} {
		acc := cell(tb, n, 2)
		if acc < prev {
			t.Errorf("accuracy not monotone: %s-access %.1f%% < previous %.1f%%", n, acc, prev)
		}
		prev = acc
	}
	// Coverage must not grow with match length (opportunities are lost).
	if cell(tb, "4", 3) > cell(tb, "1", 3)+5 {
		t.Error("coverage grew substantially with stricter matching")
	}
}

func TestPaperShapeFig10(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	tb := Fig10(testRunner)[0]
	// Full Gaze must beat both streaming-only ablations on average.
	avg := len(tb.Header) - 1
	_ = avg
	gaze := cell(tb, "AVG", 3)
	pht4ss := cell(tb, "AVG", 1)
	if gaze <= pht4ss {
		t.Errorf("full Gaze %.3f <= PHT4SS %.3f on streaming panel", gaze, pht4ss)
	}
}

// TestPaperShapes checks, at Quick scale, the headline ordering each
// artifact argues from (arXiv 2412.05211 §V; the ablation rows §III-B and
// §III-C). Orderings that do not hold at Quick are listed in DESIGN.md §3
// and not asserted; SPP-PPF rows wait for a deterministic SPP-PPF.
func TestPaperShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	all := func(string) bool { return true }
	noSPP := func(row string) bool { return !strings.Contains(row, "SPP-PPF") }
	cases := []struct {
		id, claim string
		check     func(t *testing.T, ts []stats.Table)
	}{
		{"fig1", "Fig 1: Gaze has the highest cloud and spec17 speedup of the six schemes", func(t *testing.T, ts []stats.Table) {
			colLeads(t, ts[0], "Gaze", 1, all)
			colLeads(t, ts[0], "Gaze", 2, all)
		}},
		{"fig9", "Fig 9: AVG Offset < Gaze-PHT < Gaze", func(t *testing.T, ts []stats.Table) {
			rowLeads(t, ts[0], "AVG", 3)
			if off, pht := cell(ts[0], "AVG", 1), cell(ts[0], "AVG", 2); off >= pht {
				t.Errorf("AVG Offset %.3f >= Gaze-PHT %.3f", off, pht)
			}
		}},
		{"fig11", "Fig 11: Gaze is best on every category average", func(t *testing.T, ts []stats.Table) {
			for _, avg := range []string{"avg_all", "avg_cloud", "avg_spec17"} {
				rowLeads(t, ts[0], avg, 3)
			}
		}},
		{"fig12", "Fig 12: Gaze is best on the GAP and both QMM averages", func(t *testing.T, ts []stats.Table) {
			rowLeads(t, ts[0], "avg_gap", 3)
			rowLeads(t, ts[1], "avg_qmm.srv", 3)
			rowLeads(t, ts[1], "avg_qmm.clt", 3)
		}},
		{"fig13", "Fig 13: Gaze leads both the L1+Bingo and the IP-stride+X groups", func(t *testing.T, ts []stats.Table) {
			colLeads(t, ts[0], "Gaze+Bingo", 1, func(row string) bool { return strings.HasSuffix(row, "+Bingo") })
			colLeads(t, ts[1], "IP-stride+Gaze", 1, noSPP)
		}},
		{"fig17", "Fig 17: the 4KB region is best, 256 PHT entries within 0.001 of best", func(t *testing.T, ts []stats.Table) {
			rowLeads(t, ts[0], "AVG", 4)
			for c := 1; c < len(ts[1].Header); c++ {
				if v, chosen := cell(ts[1], "AVG", c), cell(ts[1], "AVG", 2); v > chosen+0.001 {
					t.Errorf("AVG %s entries %.3f > 256 entries %.3f + 0.001", ts[1].Header[c], v, chosen)
				}
			}
		}},
		{"ablation", "§III-B/§III-C: strict matching and the streaming module both gain", func(t *testing.T, ts []stats.Table) {
			gain := len(ts[0].Header) - 1
			for _, row := range []string{"strict matching", "streaming module"} {
				if v := cell(ts[0], row, gain); v <= 0 {
					t.Errorf("%s gain %.3f <= 0", row, v)
				}
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.id, func(t *testing.T) {
			e, err := Find(c.id)
			if err != nil {
				t.Fatal(err)
			}
			t.Log(c.claim)
			c.check(t, e.Tables(testRunner))
		})
	}
}

// rowLeads fails unless tb's cell (row, col) is above every other numeric
// cell of that row.
func rowLeads(t *testing.T, tb stats.Table, row string, col int) {
	t.Helper()
	top := cell(tb, row, col)
	for c := 1; c < len(tb.Header); c++ {
		if v := cell(tb, row, c); c != col && v >= top {
			t.Errorf("%s: %s %s %.3f >= %s %.3f", tb.Title, row, tb.Header[c], v, tb.Header[col], top)
		}
	}
}

// colLeads fails unless tb's cell (row, col) is above the same column of
// every other row that in admits.
func colLeads(t *testing.T, tb stats.Table, row string, col int, in func(string) bool) {
	t.Helper()
	top := cell(tb, row, col)
	for _, r := range tb.Rows {
		if v := cell(tb, r[0], col); r[0] != row && in(r[0]) && v >= top {
			t.Errorf("%s: %s %.3f >= %s %.3f", tb.Title, r[0], v, row, top)
		}
	}
}

func TestHeteroMixesDeterministic(t *testing.T) {
	a := testRunner.heteroMixes(4, 3)
	b := testRunner.heteroMixes(4, 3)
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatal("hetero mixes not deterministic")
			}
		}
	}
}

func TestGeomeanStats(t *testing.T) {
	if g := stats.Geomean([]float64{1, 4}); g != 2 {
		t.Errorf("Geomean(1,4) = %v", g)
	}
	if g := stats.Geomean(nil); g != 0 {
		t.Errorf("Geomean(nil) = %v", g)
	}
	if m := stats.Mean([]float64{1, 3}); m != 2 {
		t.Errorf("Mean = %v", m)
	}
	if stats.Min([]float64{3, 1, 2}) != 1 || stats.Max([]float64{3, 1, 2}) != 3 {
		t.Error("Min/Max wrong")
	}
}

// TestPlanCoversRender: for every experiment, the dry-run plan names every
// job the render asks for, so after one RunAll the render simulates
// nothing and reads only the memo; and the render yields at least one
// table with at least one row.
func TestPlanCoversRender(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	r := NewRunner(Scale{TracesPerSuite: 1, TraceLen: 20_000, Warmup: 5_000, Sim: 20_000})
	for _, e := range Experiments() {
		r.RunAll(e.plan(r))
		before := r.Engine().Counters().Simulated
		tables := e.Run(r)
		if after := r.Engine().Counters().Simulated; after != before {
			t.Errorf("%s: render simulated %d jobs its plan missed", e.ID, after-before)
		}
		if len(tables) == 0 || len(tables[0].Rows) == 0 {
			t.Errorf("%s: rendered no table rows", e.ID)
		}
	}
}

// TestRowLabelsUnique: no artifact table prints the same row label twice
// (a repeated label is a copy-pasted series, never a second reading). A
// row's label is its first cell and the non-numeric cells that follow it
// ("mix1 c0" in Fig 15). The dry-run render yields every table's labels
// without simulating.
func TestRowLabelsUnique(t *testing.T) {
	r := NewRunner(Quick)
	for _, e := range Experiments() {
		var jobs []Job
		for _, tb := range e.Run(&Runner{eng: r.eng, planned: &jobs}) {
			seen := make(map[string]bool, len(tb.Rows))
			for _, row := range tb.Rows {
				label := rowLabel(row)
				if seen[label] {
					t.Errorf("%s: %q has row %q twice", e.ID, tb.Title, label)
				}
				seen[label] = true
			}
		}
	}
}

// rowLabel joins a row's first cell and the non-numeric cells after it,
// up to the first numeric one.
func rowLabel(row []string) string {
	n := min(1, len(row))
	for n < len(row) {
		if _, err := strconv.ParseFloat(strings.TrimSuffix(row[n], "%"), 64); err == nil {
			break
		}
		n++
	}
	return strings.Join(row[:n], " ")
}
