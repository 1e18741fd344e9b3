// Package repro's root benchmarks regenerate every table and figure of the
// paper's evaluation (one benchmark per artifact; DESIGN.md §3 maps IDs to
// modules). Benchmarks run the harness at Quick scale so the whole suite
// finishes in minutes; `cmd/experiments -scale full` reproduces the same
// tables over the entire 217-trace catalogue.
//
// Each benchmark reports the experiment's headline number as a custom
// metric (e.g. gaze_speedup) so regressions in the reproduction are
// visible from benchmark output alone.
package repro_test

import (
	"strconv"
	"sync"
	"testing"

	"repro/internal/harness"
	"repro/internal/stats"
)

// sharedRunner memoizes simulations across benchmarks within one `go test
// -bench` process.
var (
	runnerOnce sync.Once
	runner     *harness.Runner
)

func bench(b *testing.B, id string, metric func([]stats.Table) (string, float64)) {
	b.Helper()
	runnerOnce.Do(func() { runner = harness.NewRunner(harness.Quick) })
	exp, err := harness.Find(id)
	if err != nil {
		b.Fatal(err)
	}
	var tables []stats.Table
	for i := 0; i < b.N; i++ {
		tables = exp.Tables(runner)
	}
	if len(tables) == 0 {
		b.Fatalf("%s produced no tables", id)
	}
	if metric != nil {
		name, v := metric(tables)
		b.ReportMetric(v, name)
	}
}

// lastCell parses the float in the last column of the row whose first cell
// equals key (or the last row when key is empty).
func lastCell(t stats.Table, key string) float64 {
	for _, row := range t.Rows {
		if key == "" || row[0] == key {
			v, err := strconv.ParseFloat(trimPct(row[len(row)-1]), 64)
			if err == nil {
				return v
			}
		}
	}
	return 0
}

func trimPct(s string) string {
	for len(s) > 0 && (s[len(s)-1] == '%' || s[len(s)-1] == 'B' || s[len(s)-1] == 'K') {
		s = s[:len(s)-1]
	}
	return s
}

func BenchmarkFig01Characterization(b *testing.B) {
	bench(b, "fig1", func(ts []stats.Table) (string, float64) {
		return "gaze_cloud_speedup", func() float64 {
			for _, row := range ts[0].Rows {
				if row[0] == "Gaze" {
					v, _ := strconv.ParseFloat(row[1], 64)
					return v
				}
			}
			return 0
		}()
	})
}

func BenchmarkFig02Motivation(b *testing.B) {
	bench(b, "fig2", nil)
}

func BenchmarkFig04InitialAccesses(b *testing.B) {
	bench(b, "fig4", func(ts []stats.Table) (string, float64) {
		// Accuracy of the 2-access design point.
		for _, row := range ts[0].Rows {
			if row[0] == "2" {
				v, _ := strconv.ParseFloat(trimPct(row[2]), 64)
				return "acc2_pct", v
			}
		}
		return "acc2_pct", 0
	})
}

func BenchmarkFig06SpeedupSingleCore(b *testing.B) {
	bench(b, "fig6", func(ts []stats.Table) (string, float64) {
		return "gaze_avg_speedup", lastCell(ts[0], "Gaze")
	})
}

func BenchmarkFig07Accuracy(b *testing.B) {
	bench(b, "fig7", func(ts []stats.Table) (string, float64) {
		return "gaze_avg_accuracy_pct", lastCell(ts[0], "Gaze")
	})
}

func BenchmarkFig08CoverageTimeliness(b *testing.B) {
	bench(b, "fig8", func(ts []stats.Table) (string, float64) {
		return "gaze_avg_coverage_pct", lastCell(ts[0], "Gaze")
	})
}

func BenchmarkFig09Characterization(b *testing.B) {
	bench(b, "fig9", func(ts []stats.Table) (string, float64) {
		return "fullgaze_avg_speedup", lastCell(ts[0], "AVG")
	})
}

func BenchmarkFig10StreamingModule(b *testing.B) {
	bench(b, "fig10", func(ts []stats.Table) (string, float64) {
		return "gaze_avg_speedup", lastCell(ts[0], "AVG")
	})
}

func BenchmarkFig11Representative(b *testing.B) {
	bench(b, "fig11", func(ts []stats.Table) (string, float64) {
		return "gaze_avg_all", lastCell(ts[0], "avg_all")
	})
}

func BenchmarkFig12GapQmm(b *testing.B) {
	bench(b, "fig12", func(ts []stats.Table) (string, float64) {
		return "gaze_avg_gap", lastCell(ts[0], "avg_gap")
	})
}

func BenchmarkFig13MultiLevel(b *testing.B) {
	bench(b, "fig13", func(ts []stats.Table) (string, float64) {
		return "gaze_bingo_speedup", lastCell(ts[0], "Gaze+Bingo")
	})
}

func BenchmarkFig14MultiCore(b *testing.B) {
	bench(b, "fig14", func(ts []stats.Table) (string, float64) {
		return "gaze_8core_homo", lastCell(ts[0], "Gaze")
	})
}

func BenchmarkFig15FourCoreMixes(b *testing.B) {
	bench(b, "fig15", nil)
}

func BenchmarkFig16Sensitivity(b *testing.B) {
	bench(b, "fig16", func(ts []stats.Table) (string, float64) {
		return "gaze_12800mtps", lastCell(ts[0], "Gaze")
	})
}

func BenchmarkFig17GazeConfig(b *testing.B) {
	bench(b, "fig17", func(ts []stats.Table) (string, float64) {
		return "halfkb_norm", lastCell(ts[0], "AVG")
	})
}

func BenchmarkFig18LargeRegions(b *testing.B) {
	bench(b, "fig18", func(ts []stats.Table) (string, float64) {
		return "region64kb_norm", lastCell(ts[0], "AVG")
	})
}

func BenchmarkTable1Storage(b *testing.B) {
	bench(b, "tab1", func(ts []stats.Table) (string, float64) {
		return "total_kb", lastCell(ts[0], "Total")
	})
}

func BenchmarkTable4PrefetcherStorage(b *testing.B) {
	bench(b, "tab4", nil)
}

func BenchmarkTable5Comparison(b *testing.B) {
	bench(b, "tab5", nil)
}
