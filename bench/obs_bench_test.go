package bench

import (
	"context"
	"testing"

	"repro/internal/obs"
)

// TestStepZeroAllocTraced re-runs the steady-state zero-alloc pin with
// the observability layer armed the way engine execution arms it: a live
// tracer, an open span and a timings collector in context.
// Instrumentation stops at shard and phase boundaries, so arming it must
// add nothing to the per-step path — on heap slices and on mapped slabs.
func TestStepZeroAllocTraced(t *testing.T) {
	tracer := obs.NewTracer(obs.TracerOptions{})
	ctx := obs.WithTracer(context.Background(), tracer)
	ctx = obs.WithTimings(ctx, obs.NewTimings())
	ctx, span := obs.Start(ctx, "bench.steady_state")
	defer span.End()
	_ = ctx

	heap := warmSystem(t, nextLine{})
	if n := testing.AllocsPerRun(200, func() { heap.Advance(50) }); n != 0 {
		t.Errorf("heap: traced steady-state step allocates %.1f times per 50 steps, want 0", n)
	}
	mapped := warmSystemOn(t, mappedSlab(t, 50_000), nextLine{})
	if n := testing.AllocsPerRun(200, func() { mapped.Advance(50) }); n != 0 {
		t.Errorf("mapped: traced steady-state step allocates %.1f times per 50 steps, want 0", n)
	}
}

// TestObsDisabledZeroAlloc pins the zero-cost-when-disabled contract:
// on a context with no tracer and no timings, the whole span API —
// Start, SetAttr, End — is a nil no-op that never touches the heap.
func TestObsDisabledZeroAlloc(t *testing.T) {
	bg := context.Background()
	if n := testing.AllocsPerRun(500, func() {
		c, s := obs.Start(bg, "noop")
		s.SetAttr("k", "v")
		s.End()
		_ = c
	}); n != 0 {
		t.Errorf("disabled span lifecycle allocates %.1f times per call, want 0", n)
	}
}
