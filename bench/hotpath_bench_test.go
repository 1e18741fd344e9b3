package bench

import (
	"testing"

	"repro/internal/prefetch"
	"repro/internal/prefetchers"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// nextLine is a minimal allocation-free prefetcher that exercises the
// full issue path (queue push with duplicates, drain, L1 and L2 fills)
// without any prefetcher-model cost, so the zero-alloc pins cover the
// simulator, not a particular design.
type nextLine struct{}

func (nextLine) Name() string { return "bench-nextline" }

func (nextLine) Train(a prefetch.Access, issue prefetch.IssueFunc) {
	line := a.VAddr &^ 63
	issue(prefetch.Request{VLine: line + 64, Level: prefetch.LevelL1})
	issue(prefetch.Request{VLine: line + 128, Level: prefetch.LevelL2})
}

func (nextLine) EvictNotify(uint64) {}

// warmSystem builds a single-core system over the cached trace slab (the
// heap *trace.Columns every engine job steps over) and advances it past
// every warm-up transient (cache fill, queue and table population),
// leaving it in the steady state the simulator spends its life in.
// Telemetry is armed deliberately: the zero-alloc pins must hold with
// interval sampling live, proving collection costs one compare per step
// and boundary appends stay inside the preallocated sample storage.
func warmSystem(tb testing.TB, pf prefetch.Prefetcher) *sim.System {
	tb.Helper()
	cfg := sim.DefaultConfig(1)
	cfg.WarmupInstructions = 0
	cfg.TelemetryInterval = 5_000
	recs, err := workload.MaterializeRecords("bwaves_s-2609", 50_000)
	if err != nil {
		tb.Fatal(err)
	}
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

// TestStepZeroAlloc pins the steady-state invariant: once warm, stepping
// the simulator allocates nothing — not with an issuing stub, not with
// any evaluated prefetcher.
func TestStepZeroAlloc(t *testing.T) {
	pfs := map[string]prefetch.Prefetcher{
		"nextline": nextLine{},
		"none":     prefetch.Nil{},
	}
	for _, name := range prefetchers.EvaluatedNames() {
		pfs[name] = prefetchers.MustNew(name)
	}
	for name, pf := range pfs {
		sys := warmSystem(t, pf)
		if n := testing.AllocsPerRun(200, func() { sys.Advance(50) }); n != 0 {
			t.Errorf("%s: steady-state step allocates %.1f times per 50 steps, want 0", name, n)
		}
	}
}

// TestQueueZeroAlloc pins Push (hit, miss and full-drop) and PopReady at
// zero allocations on a warm queue.
func TestQueueZeroAlloc(t *testing.T) {
	q := prefetch.NewQueue(16, 0.5)
	for i := 0; i < 64; i++ { // warm: reach capacity and wrap the ring
		q.Push(prefetch.Request{VLine: uint64(i) * 64}, float64(i))
		if i%2 == 0 {
			q.PopReady(float64(i))
		}
	}
	n := testing.AllocsPerRun(500, func() {
		now := float64(q.Len())
		q.Push(prefetch.Request{VLine: 64}, now)
		q.Push(prefetch.Request{VLine: 64}, now)  // duplicate
		q.Push(prefetch.Request{VLine: 128}, now) // likely full drop
		q.PopReady(now * 2)
	})
	if n != 0 {
		t.Errorf("queue operations allocate %.1f times per run, want 0", n)
	}
}
