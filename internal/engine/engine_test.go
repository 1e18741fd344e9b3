package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// tiny keeps engine tests fast: one short trace, tiny budgets.
var tiny = Scale{TracesPerSuite: 1, TraceLen: 10_000, Warmup: 5_000, Sim: 20_000}

func tinyJob(pf string) Job {
	return Job{Traces: []string{"lbm-1274"}, L1: []string{pf}}
}

func TestRunMemoizes(t *testing.T) {
	e := New(Options{Scale: tiny})
	a := e.Run(tinyJob("IP-stride"))
	b := e.Run(tinyJob("IP-stride"))
	if a.MeanIPC() != b.MeanIPC() {
		t.Error("memoized results differ")
	}
	c := e.Counters()
	if c.Simulated != 1 || c.MemoHits != 1 {
		t.Errorf("counters = %+v, want 1 simulated / 1 memo hit", c)
	}
}

func TestStoreHitAcrossEngines(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	first := New(Options{Scale: tiny, Store: store})
	a := first.Run(tinyJob("IP-stride"))
	if c := first.Counters(); c.Simulated != 1 {
		t.Fatalf("first engine counters = %+v", c)
	}

	// A fresh engine simulates nothing: the persisted store answers.
	second := New(Options{Scale: tiny, Store: store})
	b := second.Run(tinyJob("IP-stride"))
	c := second.Counters()
	if c.Simulated != 0 || c.StoreHits != 1 {
		t.Errorf("second engine counters = %+v, want 0 simulated / 1 store hit", c)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("store round-trip changed the result:\n%+v\n%+v", a, b)
	}

	// A different scale must not reuse the entry.
	bigger := tiny
	bigger.Sim *= 2
	third := New(Options{Scale: bigger, Store: store})
	third.Run(tinyJob("IP-stride"))
	if c := third.Counters(); c.Simulated != 1 {
		t.Errorf("scaled-up engine counters = %+v, want a recompute", c)
	}
}

func TestConcurrentIdenticalJobsCoalesce(t *testing.T) {
	e := New(Options{Scale: tiny})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.Run(tinyJob("IP-stride"))
		}()
	}
	wg.Wait()
	if c := e.Counters(); c.Simulated != 1 {
		t.Errorf("counters = %+v, want exactly 1 simulation for 8 identical jobs", c)
	}
}

func TestRunAllOrderAndProgress(t *testing.T) {
	var (
		mu     sync.Mutex
		events []Progress
	)
	e := New(Options{Scale: tiny, Workers: 2, Progress: func(p Progress) {
		mu.Lock()
		events = append(events, p)
		mu.Unlock()
	}})
	jobs := []Job{tinyJob("none"), tinyJob("IP-stride"), tinyJob("BOP"), tinyJob("none")}
	results := e.RunAll(jobs)
	if len(results) != len(jobs) {
		t.Fatalf("got %d results", len(results))
	}
	// Results are in input order: identical jobs get identical results.
	if !reflect.DeepEqual(results[0], results[3]) {
		t.Error("duplicate jobs returned different results")
	}
	if results[0].MeanIPC() <= 0 || results[1].MeanIPC() <= 0 {
		t.Error("results look empty")
	}
	if len(events) != len(jobs) {
		t.Fatalf("progress events = %d, want %d", len(events), len(jobs))
	}
	last := events[len(events)-1]
	if last.Done != len(jobs) || last.Total != len(jobs) {
		t.Errorf("final progress = %+v", last)
	}
	for i, p := range events {
		if p.Done != i+1 {
			t.Errorf("event %d: Done = %d, want %d", i, p.Done, i+1)
		}
	}
}

func TestRunAllDeterministicSharding(t *testing.T) {
	jobs := []Job{tinyJob("none"), tinyJob("IP-stride"), tinyJob("BOP")}
	run := func() []sim.Result {
		return New(Options{Scale: tiny, Workers: 2}).RunAll(jobs)
	}
	if !reflect.DeepEqual(run(), run()) {
		t.Error("identical sweeps produced different results")
	}
}

func TestContentAddressSeparatesScaleAndOverrides(t *testing.T) {
	j := tinyJob("Gaze")
	a := j.ContentAddress(tiny)
	if b := j.ContentAddress(Standard); a == b {
		t.Error("content address ignores scale")
	}
	overridden := j
	overridden.Overrides = Overrides{DRAMMTPS: 1600}
	if overridden.ContentAddress(tiny) == a {
		t.Error("content address ignores Overrides")
	}
	// TracesPerSuite only selects jobs; equal budgets must share entries.
	wider := tiny
	wider.TracesPerSuite = 99
	if j.ContentAddress(wider) != a {
		t.Error("content address depends on TracesPerSuite")
	}
	// A job overriding both budgets runs identically under every scale
	// with the same TraceLen — the scale's unused budgets must not split
	// the cache entry.
	pinned := j
	pinned.Overrides = Overrides{WarmupInstructions: 1000, SimInstructions: 5000}
	other := tiny
	other.Warmup, other.Sim = 77, 88
	if pinned.ContentAddress(tiny) != pinned.ContentAddress(other) {
		t.Error("content address depends on scale budgets the overrides replace")
	}
	// Prefetch-queue knobs cannot affect a no-prefetch run, so a PQ-swept
	// baseline must collapse onto the plain one (one cached denominator
	// per trace, not one per axis value) — while a prefetching job must
	// keep the knobs in its identity.
	baseline := Job{Traces: []string{"lbm-1274"}, L1: []string{"none"}}
	pqBaseline := baseline
	pqBaseline.Overrides = Overrides{PQCapacity: 8, PQDrainRate: 2}
	if baseline.ContentAddress(tiny) != pqBaseline.ContentAddress(tiny) {
		t.Error("PQ overrides split the no-prefetch baseline's cache entry")
	}
	pqJob := j
	pqJob.Overrides = Overrides{PQCapacity: 8}
	if pqJob.ContentAddress(tiny) == j.ContentAddress(tiny) {
		t.Error("PQ overrides ignored for a prefetching job")
	}
}

// TestContentAddressNormalizesSpellings: spellings that run the same
// simulation must share one cache entry.
func TestContentAddressNormalizesSpellings(t *testing.T) {
	two := Job{Traces: []string{"lbm-1274", "lbm-1274"}, L1: []string{"Gaze"}}
	broadcast := Job{Traces: []string{"lbm-1274", "lbm-1274"}, L1: []string{"Gaze", "Gaze"}}
	if two.ContentAddress(tiny) != broadcast.ContentAddress(tiny) {
		t.Error("broadcast and explicit prefetcher slices hash differently")
	}
	none := Job{Traces: []string{"lbm-1274"}, L1: []string{"none"}}
	empty := Job{Traces: []string{"lbm-1274"}, L1: []string{""}}
	absent := Job{Traces: []string{"lbm-1274"}}
	if none.ContentAddress(tiny) != empty.ContentAddress(tiny) ||
		none.ContentAddress(tiny) != absent.ContentAddress(tiny) {
		t.Error(`"none", "" and absent prefetcher slices hash differently`)
	}
	if none.ContentAddress(tiny) == two.ContentAddress(tiny) {
		t.Error("distinct jobs share a content address")
	}
}

func TestOverridesAffectExecution(t *testing.T) {
	e := New(Options{Scale: tiny})
	def := e.Run(tinyJob("none"))
	throttled := tinyJob("none")
	throttled.Overrides = Overrides{DRAMMTPS: 200}
	slow := e.Run(throttled)
	if slow.MeanIPC() >= def.MeanIPC() {
		t.Errorf("200 MTPS IPC %.3f >= default IPC %.3f", slow.MeanIPC(), def.MeanIPC())
	}
	if c := e.Counters(); c.Simulated != 2 {
		t.Errorf("counters = %+v, want 2 distinct simulations", c)
	}
}

// TestSweepGeneratesTraceOnce runs a sharded sweep — many prefetchers
// over one trace, across several workers (exercised under -race in CI) —
// and asserts the materialized-trace cache generated the trace exactly
// once for the whole sweep.
func TestSweepGeneratesTraceOnce(t *testing.T) {
	workload.ResetTraceCache()
	e := New(Options{Scale: tiny, Workers: 4})
	jobs := []Job{
		{Traces: []string{"soplex-66"}, L1: []string{"none"}},
		{Traces: []string{"soplex-66"}, L1: []string{"Gaze"}},
		{Traces: []string{"soplex-66"}, L1: []string{"PMP"}},
		{Traces: []string{"soplex-66"}, L1: []string{"Bingo"}},
		{Traces: []string{"soplex-66"}, L1: []string{"SPP-PPF"}},
		{Traces: []string{"soplex-66"}, L1: []string{"IP-stride"}},
		{Traces: []string{"soplex-66"}, L1: []string{"Gaze"}, Overrides: Overrides{PQCapacity: 16}},
		{Traces: []string{"soplex-66"}, L1: []string{"Gaze"}, Overrides: Overrides{DRAMMTPS: 1600}},
	}
	e.RunAll(jobs)

	st := workload.TraceCacheStats()
	if st.Misses != 1 {
		t.Errorf("sweep generated the trace %d times, want exactly once", st.Misses)
	}
	if st.Entries != 1 {
		t.Errorf("trace cache holds %d entries, want 1", st.Entries)
	}
	if want := int64(tiny.TraceLen) * trace.ColumnarRecordBytes; st.Bytes != want {
		t.Errorf("trace cache bytes = %d, want %d", st.Bytes, want)
	}
}

func TestEstimateRemaining(t *testing.T) {
	// No simulated completions yet → no cost sample → unknown (zero),
	// not a near-zero extrapolation from cache hits.
	if got := estimateRemaining(time.Minute, 0, 50, 100); got != 0 {
		t.Errorf("all-cached ETA = %v, want 0", got)
	}
	// Mean cost excludes cached jobs: 10 jobs done but only 2 simulated
	// in 20s → 10s per simulated job, 90 jobs left → 900s.
	if got := estimateRemaining(20*time.Second, 2, 10, 100); got != 900*time.Second {
		t.Errorf("ETA = %v, want 900s", got)
	}
	// Completion and overshoot (interleaved concurrent sweeps) clamp to
	// zero rather than going negative.
	if got := estimateRemaining(time.Minute, 4, 100, 100); got != 0 {
		t.Errorf("completed-sweep ETA = %v, want 0", got)
	}
	if got := estimateRemaining(time.Minute, 4, 101, 100); got != 0 {
		t.Errorf("overshot ETA = %v, want 0 (never negative)", got)
	}
}

func TestScaleByName(t *testing.T) {
	for name, want := range map[string]Scale{"quick": Quick, "standard": Standard, "full": Full} {
		got, err := ScaleByName(name)
		if err != nil || got != want {
			t.Errorf("ScaleByName(%q) = %+v, %v", name, got, err)
		}
	}
	if _, err := ScaleByName("huge"); err == nil {
		t.Error("unknown scale accepted")
	}
}

func TestBroadcast(t *testing.T) {
	if got := Broadcast([]string{"x"}, 3); len(got) != 3 || got[2] != "x" {
		t.Errorf("broadcast = %v", got)
	}
	if got := Broadcast([]string{"a", "b"}, 2); got[0] != "a" || got[1] != "b" {
		t.Errorf("exact-length broadcast = %v", got)
	}
}

func TestJobValidate(t *testing.T) {
	good := Job{Traces: []string{"lbm-1274"}, L1: []string{"Gaze"}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid job rejected: %v", err)
	}
	four := []string{"lbm-1274", "lbm-1274", "lbm-1274", "lbm-1274"}
	bad := []Job{
		{}, // no traces
		{Traces: []string{"lbm-1274", "lbm-1274", "lbm-1274"}},                   // non-pow2 cores
		{Traces: []string{"no-such-trace"}},                                      // unknown trace
		{Traces: []string{"lbm-1274"}, L1: []string{"xx"}},                       // unknown L1
		{Traces: []string{"lbm-1274"}, L1: []string{"Gaze"}, L2: []string{"xx"}}, // unknown L2
		{Traces: four, L1: []string{"Gaze", "PMP", "BOP"}},                       // 3 L1 names on 4 cores
		{Traces: four, L1: []string{"Gaze"}, L2: []string{"BOP", "BOP"}},         // 2 L2 names on 4 cores
		{Traces: []string{"lbm-1274"}, Overrides: Overrides{DRAMMTPS: -5}},       // out-of-range override
		{Traces: []string{"lbm-1274"}, Overrides: Overrides{L2KB: 1 << 30}},      // absurd override
	}
	for _, j := range bad {
		if err := j.Validate(); err == nil {
			t.Errorf("Validate(%v) accepted an invalid job", j)
		}
	}
}

// brokenSource resolves a name at validation time but fails to load it —
// the shape of a registry trace deleted (or damaged on disk) between
// validation and execution.
type brokenSource struct{ name string }

func (b brokenSource) Exists(name string) bool { return name == b.name }
func (b brokenSource) Load(string, int) ([]trace.Record, error) {
	return nil, errSupply
}

var errSupply = fmt.Errorf("trace supply failed")

// TestTraceSupplyFailureSurfacesAsError: a trace that stops materializing
// mid-flight must flow out of RunContext/RunAllContext as an error — not
// a process-killing panic, not silent zero results.
func TestTraceSupplyFailureSurfacesAsError(t *testing.T) {
	workload.ResetSources()
	workload.ResetTraceCache()
	t.Cleanup(workload.ResetSources)
	t.Cleanup(workload.ResetTraceCache)
	name := workload.IngestedName("feedfacefeedfacefeedfacefeedfacefeedfacefeedfacefeedfacefeedface")
	workload.RegisterSource(brokenSource{name: name})

	e := New(Options{Scale: tiny})
	job := Job{Traces: []string{name}, L1: []string{"none"}}
	if err := job.Validate(); err != nil {
		t.Fatalf("job should validate while the source resolves it: %v", err)
	}
	if _, err := e.RunContext(context.Background(), job); !errors.Is(err, errSupply) {
		t.Fatalf("RunContext err = %v, want the supply error", err)
	}
	// The sweep path returns the first job error rather than zero rows.
	results, err := e.RunAllContext(context.Background(), []Job{job, tinyJob("none")}, nil)
	if !errors.Is(err, errSupply) {
		t.Fatalf("RunAllContext err = %v, want the supply error", err)
	}
	_ = results
	// The engine is not poisoned: catalogue jobs still run.
	if res := e.Run(tinyJob("IP-stride")); res.MeanIPC() <= 0 {
		t.Error("engine unusable after a supply failure")
	}
}
