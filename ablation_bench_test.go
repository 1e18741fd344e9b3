// Ablation benchmarks for the design choices DESIGN.md calls out, beyond
// the paper's own figures: PHT learning policy, strict-vs-partial matching
// value, streaming-module contribution per suite. Each reports a simulated
// metric; host-time throughput is perfbench's job.
package repro_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/prefetch"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func quickSim(b *testing.B, traceName string, pf prefetch.Prefetcher) sim.Result {
	b.Helper()
	cfg := sim.DefaultConfig(1)
	cfg.WarmupInstructions = 40_000
	cfg.SimInstructions = 150_000
	recs := workload.MustGenerate(traceName, 50_000)
	sys, err := sim.New(cfg, []sim.CoreSpec{{
		Trace:        trace.NewLooping(trace.NewSliceReader(recs)),
		L1Prefetcher: pf,
	}})
	if err != nil {
		b.Fatal(err)
	}
	return sys.Run()
}

// BenchmarkAblationStrictMatching quantifies what strict two-access
// matching buys on a trigger-ambiguous workload: the accuracy gap between
// Offset-only and Gaze keying (§III-B's motivation).
func BenchmarkAblationStrictMatching(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		offset := quickSim(b, "fotonik3d_s-8225", core.NewOffsetOnly())
		gaze := quickSim(b, "fotonik3d_s-8225", core.NewGazePHT())
		gap = gaze.Accuracy() - offset.Accuracy()
	}
	b.ReportMetric(100*gap, "accuracy_gain_pct")
}

// BenchmarkAblationStreamingModule isolates the two-stage streaming
// controller's contribution on an interleaved graph-compute trace.
func BenchmarkAblationStreamingModule(b *testing.B) {
	var delta float64
	for i := 0; i < b.N; i++ {
		base := quickSim(b, "PageRank-61", nil).MeanIPC()
		pht := quickSim(b, "PageRank-61", core.NewGazePHT()).MeanIPC()
		full := quickSim(b, "PageRank-61", core.NewDefault()).MeanIPC()
		delta = full/base - pht/base
	}
	b.ReportMetric(delta, "speedup_delta")
}

// BenchmarkAblationBackupStride measures the region-stride backup's
// contribution when strict matching misses (unknown patterns with steady
// strides).
func BenchmarkAblationBackupStride(b *testing.B) {
	noBackup := core.DefaultConfig()
	noBackup.StrideBackup = false
	var delta float64
	for i := 0; i < b.N; i++ {
		with := quickSim(b, "GemsFDTD-1211", core.NewDefault()).MeanIPC()
		without := quickSim(b, "GemsFDTD-1211", core.New(noBackup)).MeanIPC()
		delta = with - without
	}
	b.ReportMetric(delta, "ipc_delta")
}

// BenchmarkAblationPBDrainRate sweeps the prefetch-buffer drain bound: too
// slow starves timeliness, too fast floods the prefetch queue.
func BenchmarkAblationPBDrainRate(b *testing.B) {
	for _, drain := range []int{1, 2, 4, 8, 16} {
		drain := drain
		b.Run(string(rune('0'+drain/10))+string(rune('0'+drain%10)), func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.PBDrainPerTrain = drain
			var sp float64
			for i := 0; i < b.N; i++ {
				base := quickSim(b, "bwaves_s-2609", nil).MeanIPC()
				res := quickSim(b, "bwaves_s-2609", core.New(cfg)).MeanIPC()
				sp = res / base
			}
			b.ReportMetric(sp, "speedup")
		})
	}
}

// BenchmarkAblationPromotionDegree sweeps stage 2's promotion degree.
func BenchmarkAblationPromotionDegree(b *testing.B) {
	for _, degree := range []int{2, 4, 8} {
		degree := degree
		b.Run(string(rune('0'+degree)), func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.PromoteDegree = degree
			var sp float64
			for i := 0; i < b.N; i++ {
				base := quickSim(b, "lbm-1274", nil).MeanIPC()
				sp = quickSim(b, "lbm-1274", core.New(cfg)).MeanIPC() / base
			}
			b.ReportMetric(sp, "speedup")
		})
	}
}

// BenchmarkAblationConfidenceControl measures the future-work confidence
// extension on a churn-heavy cloud trace: rejecting decayed patterns
// trades a little coverage for accuracy.
func BenchmarkAblationConfidenceControl(b *testing.B) {
	confCfg := core.DefaultConfig()
	confCfg.ConfidenceControl = true
	var accGain float64
	for i := 0; i < b.N; i++ {
		base := quickSim(b, "cassandra-p0c0", core.NewDefault())
		withConf := quickSim(b, "cassandra-p0c0", core.New(confCfg))
		accGain = withConf.Accuracy() - base.Accuracy()
	}
	b.ReportMetric(100*accGain, "accuracy_delta_pct")
}
