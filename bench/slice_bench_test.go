package bench

// Pins and benchmarks for the two big-trace structures: the mmap-backed
// columnar slab step path (must stay allocation-free, like the heap path)
// and time-sliced intra-trace execution (one big trace split across
// cores; the interesting number is sliced vs unsliced wall clock on a
// multi-core host).

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/prefetch"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/traceset"
	"repro/internal/workload"
)

// mappedSlab materializes the benchmark trace as an mmap-backed columnar
// slab in a temp file. Skips when the platform has no mmap.
func mappedSlab(tb testing.TB, n int) *trace.Columns {
	tb.Helper()
	recs := workload.MustMaterialize("bwaves_s-2609", n)
	path := filepath.Join(tb.TempDir(), "bench.cols")
	if err := os.WriteFile(path, trace.EncodeColumnar(recs), 0o644); err != nil {
		tb.Fatal(err)
	}
	cols, err := trace.MapColumnar(path)
	if err != nil {
		tb.Skipf("mmap unavailable: %v", err)
	}
	if !cols.Mapped() {
		tb.Fatal("MapColumnar returned an unmapped slab")
	}
	return cols
}

// warmSystemOn is warmSystem over an arbitrary Records implementation, so
// the same steady state can be measured on heap slices and mapped slabs.
func warmSystemOn(tb testing.TB, recs trace.Records, pf prefetch.Prefetcher) *sim.System {
	tb.Helper()
	cfg := sim.DefaultConfig(1)
	cfg.WarmupInstructions = 0
	sys, err := sim.New(cfg, []sim.CoreSpec{{
		Trace:        trace.NewLooping(trace.NewRecordsReader(recs)),
		L1Prefetcher: pf,
	}})
	if err != nil {
		tb.Fatal(err)
	}
	sys.Advance(100_000)
	return sys
}

// TestStepMappedZeroAlloc extends the steady-state zero-alloc pin to the
// mapped-slab path: iterating a *trace.Columns through the Records seam
// must allocate nothing per step, exactly like the heap slice.
func TestStepMappedZeroAlloc(t *testing.T) {
	sys := warmSystemOn(t, mappedSlab(t, 50_000), nextLine{})
	if n := testing.AllocsPerRun(200, func() { sys.Advance(50) }); n != 0 {
		t.Errorf("mapped-slab step allocates %.1f times per 50 steps, want 0", n)
	}
}

// bigTrace ingests one large synthetic trace into a process-lifetime
// registry and registers it as a workload source, once — both big-trace
// benchmarks (and any -count repetition) share the materialized slab, so
// iterations measure simulation, not ingest.
var bigTrace struct {
	once sync.Once
	name string
	err  error
}

const bigTraceRecords = 400_000

func bigTraceName(tb testing.TB) string {
	tb.Helper()
	bigTrace.once.Do(func() {
		dir, err := os.MkdirTemp("", "bench-bigtrace-*")
		if err != nil {
			bigTrace.err = err
			return
		}
		reg, err := traceset.Open(dir, traceset.Options{})
		if err != nil {
			bigTrace.err = err
			return
		}
		recs := make([]trace.Record, bigTraceRecords)
		state := uint64(0x5851f42d4c957f2d)
		for i := range recs {
			state = state*6364136223846793005 + 1442695040888963407
			kind := trace.Load
			if state>>62 == 3 {
				kind = trace.Store
			}
			recs[i] = trace.Record{
				PC:     0x400000 + uint64(i%2048)*4,
				Addr:   (state >> 16) &^ 63,
				NonMem: uint16(state % 7),
				Kind:   kind,
			}
		}
		m, _, err := reg.IngestRecords(recs, trace.FormatGZTR)
		if err != nil {
			bigTrace.err = err
			return
		}
		workload.RegisterSource(reg)
		bigTrace.name = m.Name()
	})
	if bigTrace.err != nil {
		tb.Fatal(bigTrace.err)
	}
	return bigTrace.name
}

// bigScale budgets one single-core job at roughly a hundred milliseconds
// of simulation on a current core — big enough that slice fan-out
// dominates its fixed costs, small enough for CI.
var bigScale = engine.Scale{TracesPerSuite: 1, TraceLen: bigTraceRecords, Warmup: 100_000, Sim: 1_200_000}

func runBigTrace(b *testing.B, shards int) {
	name := bigTraceName(b)
	job := engine.Job{
		Traces:    []string{name},
		L1:        []string{"Gaze"},
		Overrides: engine.Overrides{SliceShards: shards},
	}
	if err := job.Validate(); err != nil {
		b.Fatal(err)
	}
	// Warm the trace cache so the first iteration is not charged the
	// registry decode.
	if _, err := workload.MaterializeRecords(name, bigScale.TraceLen); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh engine per iteration defeats the memo: every iteration
		// simulates. The persisted store is off for the same reason.
		// Telemetry rides armed, as it does in the service defaults.
		eng := engine.New(engine.Options{Scale: bigScale, TelemetryInterval: sim.DefaultTelemetryInterval})
		eng.Run(job)
	}
}

// BenchmarkBigTraceUnsliced is the baseline: one big ingested trace,
// one core, serial. Compare against BenchmarkBigTraceSliced4 on a
// multi-core host for the intra-trace parallelism win (the two are NOT
// numerically identical runs — slicing is part of the job key — but they
// answer the same experimental question over the same window).
func BenchmarkBigTraceUnsliced(b *testing.B) { runBigTrace(b, 0) }

// BenchmarkBigTraceSliced4 runs the same trace as four parallel time
// slices. On a >= 4-core host this should finish in well under half the
// unsliced wall clock (per-slice warmup replay is the overhead bounding
// it below 4x).
func BenchmarkBigTraceSliced4(b *testing.B) { runBigTrace(b, 4) }
