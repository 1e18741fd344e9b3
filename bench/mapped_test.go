package bench

// Pin for the mmap-backed columnar slab step path: it must stay
// allocation-free, like the heap path.

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/prefetch"
	"repro/internal/sim"
	"repro/internal/trace"
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
