// Package engine executes prefetcher simulations as cacheable experiment
// jobs. It is the shared substrate under internal/harness (paper tables),
// cmd/gazesim and cmd/experiments (CLIs) and cmd/gazeserve (HTTP): every
// entry point describes work as Jobs, and the engine deduplicates them
// through an in-process memo, an optional content-addressed disk store
// (instant repeated sweeps across processes), and a sweep executor whose
// workers share one deduplicated, costliest-first queue and report
// progress/ETA.
package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/prefetchers"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Scale bounds experiment cost. The paper simulates 200M+200M instructions
// per trace on a 384-core cluster over days; synthetic stationary traces
// converge much faster (DESIGN.md §1), so even Full here is laptop-scale.
type Scale struct {
	// TracesPerSuite caps traces per suite (0 = all catalogue entries).
	TracesPerSuite int
	// TraceLen is the number of generated records per trace.
	TraceLen int
	// Warmup and Sim are per-core instruction budgets.
	Warmup uint64
	Sim    uint64
}

// Predefined scales.
var (
	Quick    = Scale{TracesPerSuite: 2, TraceLen: 50_000, Warmup: 40_000, Sim: 150_000}
	Standard = Scale{TracesPerSuite: 5, TraceLen: 120_000, Warmup: 100_000, Sim: 400_000}
	Full     = Scale{TracesPerSuite: 0, TraceLen: 250_000, Warmup: 200_000, Sim: 800_000}
)

// ScaleByName maps the CLI spelling of a scale to its definition.
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "quick":
		return Quick, nil
	case "standard":
		return Standard, nil
	case "full":
		return Full, nil
	}
	return Scale{}, fmt.Errorf("engine: unknown scale %q (want quick, standard or full)", name)
}

// Job declaratively describes one simulation: one or more cores with
// traces and prefetchers, plus typed configuration Overrides. A Job holds
// only plain values — no functions — so it serializes to JSON, travels
// over HTTP unchanged, and is content-addressed by ContentAddress; two
// jobs describing the same simulation hash identically by construction.
type Job struct {
	// Traces holds one trace name per core.
	Traces []string `json:"traces"`
	// L1 holds one L1 prefetcher name per core ("" / "none" for no
	// prefetching); a single-element slice is broadcast to all cores.
	L1 []string `json:"l1,omitempty"`
	// L2 optionally attaches L2 prefetchers (Fig 13), broadcast like L1.
	L2 []string `json:"l2,omitempty"`
	// Overrides perturbs the default system configuration (Fig 16's
	// sensitivity axes and more); the zero value is the Table II default.
	Overrides Overrides `json:"overrides,omitzero"`
}

// canonicalVersion stamps the canonical job encoding. It is defined as
// the store schema version so the two cannot drift: an encoding change
// moves records to unreachable paths, and only the Open-time sweep keyed
// on StoreSchemaVersion can clean those up.
const canonicalVersion = StoreSchemaVersion

// canonicalJob is the canonical serialization that content addresses are
// computed over. It folds in every scale knob that changes the simulation
// outcome (TracesPerSuite only selects jobs, it never alters one, so it
// is excluded — a Quick and a Full sweep share entries for identical jobs
// at equal budgets). It is a struct, not a map, so encoding/json emits
// fields in one fixed order on every process and platform.
type canonicalJob struct {
	V        int      `json:"v"`
	TraceLen int      `json:"trace_len"`
	Warmup   uint64   `json:"warmup"`
	Sim      uint64   `json:"sim"`
	Traces   []string `json:"traces"`
	// TraceDigests pins per-core trace content for traces resolved outside
	// the synthetic catalogue (ingested real traces): one digest per core,
	// "" for catalogue traces, omitted entirely — preserving every
	// existing key — when all cores run catalogue traces, whose names
	// regenerate their records bit for bit and so are already identities.
	TraceDigests []string  `json:"trace_digests,omitempty"`
	L1           []string  `json:"l1,omitempty"`
	L2           []string  `json:"l2,omitempty"`
	Overrides    Overrides `json:"overrides,omitzero"`
}

// CanonicalJSON returns the job's canonical encoding at a scale — the
// preimage of ContentAddress and the self-describing key persisted inside
// store records. Inputs are normalized first so spellings that run the
// same simulation share one encoding and therefore one cache entry:
// prefetcher slices are broadcast to the core count with "none" folded
// into "", and instruction-budget overrides are folded into the warmup/sim
// fields they replace (a job overriding both budgets encodes identically
// under every scale, since the scale's budgets never reach the simulator).
func (j Job) CanonicalJSON(scale Scale) string {
	warmup, sim := j.Overrides.EffectiveBudgets(scale)
	o := j.Overrides
	o.WarmupInstructions, o.SimInstructions = 0, 0 // folded into warmup/sim
	l1 := canonicalNames(j.L1, len(j.Traces))
	l2 := canonicalNames(j.L2, len(j.Traces))
	if l1 == nil && l2 == nil {
		// Prefetch-queue knobs only shape prefetch traffic
		// (sim.Config.PQ* feed prefetch.NewQueue and nothing else), so a
		// no-prefetch job runs identically at any queue geometry — fold
		// the knobs out so every axis value of a PQ sweep shares one
		// baseline entry instead of re-simulating it per value.
		o.PQCapacity, o.PQDrainRate = 0, 0
	}
	doc := canonicalJob{
		V:            canonicalVersion,
		TraceLen:     scale.TraceLen,
		Warmup:       warmup,
		Sim:          sim,
		Traces:       j.Traces,
		TraceDigests: traceDigests(j.Traces),
		L1:           l1,
		L2:           l2,
		Overrides:    o,
	}
	data, err := json.Marshal(doc)
	if err != nil { // no field of canonicalJob can fail to encode
		panic(fmt.Sprintf("engine: encoding job %v: %v", j, err))
	}
	return string(data)
}

// ContentAddress returns the SHA-256 hex digest of CanonicalJSON — the
// job's identity in the memo, the persisted store (which files records
// under it) and Progress reports.
func (j Job) ContentAddress(scale Scale) string {
	return hashKey(j.CanonicalJSON(scale))
}

// traceDigests returns the per-core trace-content digests the canonical
// encoding folds in, or nil when every core runs a catalogue trace.
// Ingested traces carry their record-stream digest inside the name
// (workload.TraceDigest is a pure parse, no registry I/O), so the
// encoding stays deterministic on any process — including ones with no
// trace registry attached.
func traceDigests(traces []string) []string {
	var out []string
	for i, tr := range traces {
		if d, ok := workload.TraceDigest(tr); ok {
			if out == nil {
				out = make([]string, len(traces))
			}
			out[i] = d
		}
	}
	return out
}

// canonicalNames broadcasts a prefetcher slice to n cores with "none"
// mapped to "", returning nil when no core prefetches (so an absent and
// an all-disabled slice encode identically).
func canonicalNames(names []string, n int) []string {
	out := make([]string, n)
	copy(out, Broadcast(names, n))
	any := false
	for i, name := range out {
		if name == "none" {
			out[i] = ""
		}
		any = any || out[i] != ""
	}
	if !any {
		return nil
	}
	return out
}

// String returns a compact human-readable label for progress lines and
// panic messages; cache keys use ContentAddress instead.
func (j Job) String() string {
	s := fmt.Sprintf("%v|%v|%v", j.Traces, j.L1, j.L2)
	if !j.Overrides.IsZero() {
		s += fmt.Sprintf("|%+v", j.Overrides)
	}
	return s
}

// Validate reports whether the job can execute: every trace is in the
// catalogue, every prefetcher name constructs, and the core count keeps
// the default cache geometry a power of two. Entry points MUST call it on
// untrusted input — execute treats an invalid job as programmer error and
// panics.
func (j Job) Validate() error {
	n := len(j.Traces)
	if n == 0 {
		return fmt.Errorf("engine: job has no traces")
	}
	if n&(n-1) != 0 {
		return fmt.Errorf("engine: core count must be a power of two, got %d", n)
	}
	for _, tr := range j.Traces {
		if !workload.Exists(tr) {
			return fmt.Errorf("engine: unknown trace %q", tr)
		}
	}
	// A prefetcher slice must be empty (no prefetching), one name
	// (broadcast), or exactly one name per core: Broadcast would silently
	// zero-pad e.g. 3 names onto 4 cores, running a system the caller
	// never asked for.
	for _, level := range []struct {
		label string
		names []string
	}{{"l1", j.L1}, {"l2", j.L2}} {
		if len(level.names) > 1 && len(level.names) != n {
			return fmt.Errorf("engine: %d %s prefetcher names for %d cores (want 1 or %d)",
				len(level.names), level.label, n, n)
		}
		for _, name := range level.names {
			if name == "" || name == "none" {
				continue
			}
			if _, err := prefetchers.New(name); err != nil {
				return err
			}
		}
	}
	return j.Overrides.Validate()
}

// Baseline returns the job's no-prefetch counterpart: same traces and
// overrides, L1/L2 prefetching disabled. Its result is the denominator of
// every speedup the harness, CLIs and server report.
func (j Job) Baseline() Job {
	return Job{Traces: j.Traces, L1: []string{"none"}, Overrides: j.Overrides}
}

// Instructions returns the job's cost at a scale: the warmup+sim budget
// it runs, per the single budget-fold rule, summed over its cores. The
// server caps request work by it and RunAll orders its queue by it.
func (j Job) Instructions(scale Scale) uint64 {
	warmup, sim := j.Overrides.EffectiveBudgets(scale)
	return uint64(len(j.Traces)) * (warmup + sim)
}

// Speedup returns res.MeanIPC()/base.MeanIPC(), or 0 when the baseline
// did not run.
func Speedup(res, base sim.Result) float64 {
	if base.MeanIPC() == 0 {
		return 0
	}
	return res.MeanIPC() / base.MeanIPC()
}

// Broadcast expands a 1-element name slice to n cores, leaving exact-length
// slices untouched and padding short ones with "".
func Broadcast(names []string, n int) []string {
	if len(names) == n {
		return names
	}
	out := make([]string, n)
	for i := range out {
		if len(names) == 1 {
			out[i] = names[0]
		} else if i < len(names) {
			out[i] = names[i]
		}
	}
	return out
}

// Progress reports sweep advancement after each completed job.
type Progress struct {
	// Done and Total count jobs within the current RunAll sweep.
	Done, Total int
	// Cached reports whether the job was served from the memo or store.
	Cached bool
	// Job is a human-readable label for the completed job (Job.String);
	// Address is its content address — the identity the memo and the
	// persisted store file it under.
	Job, Address string
	// Elapsed is the time since the sweep started; Remaining is the ETA
	// extrapolated from the mean per-job cost so far.
	Elapsed, Remaining time.Duration
}

// StderrProgress renders a one-line sweep status on stderr, suitable for
// Options.Progress in CLIs. The trailing spaces wipe leftovers from a
// longer previous line; the carriage return keeps it on one line until
// the sweep completes.
func StderrProgress(p Progress) {
	fmt.Fprintf(os.Stderr, "\rsweep %d/%d  elapsed %v  eta %v   ",
		p.Done, p.Total, p.Elapsed.Round(time.Second), p.Remaining.Round(time.Second))
	if p.Done == p.Total {
		fmt.Fprint(os.Stderr, "\n")
	}
}

// estimateRemaining extrapolates a sweep ETA from simulated completions
// only: cache hits finish in microseconds, and averaging them into the
// per-job cost would make a resumed sweep's ETA absurdly optimistic —
// near-zero while hits drain, then wildly jumping once real work starts.
// Until the first simulation completes there is no cost sample at all, so
// the ETA is reported as unknown (zero). Assuming every remaining job
// simulates overestimates instead, and shrinks as hits drain; the result
// is clamped so a reported ETA is never negative.
func estimateRemaining(elapsed time.Duration, simulated, done, total int) time.Duration {
	if simulated <= 0 || done >= total {
		return 0
	}
	remaining := time.Duration(float64(elapsed) / float64(simulated) * float64(total-done))
	if remaining < 0 {
		return 0
	}
	return remaining
}

// Counters tallies where results came from.
type Counters struct {
	// MemoHits were served from the in-process memo.
	MemoHits uint64
	// StoreHits were loaded from the persisted store.
	StoreHits uint64
	// Simulated were computed by running the simulator.
	Simulated uint64
}

// Options configures an Engine. The zero value is usable: Standard scale,
// no persistence, GOMAXPROCS workers.
type Options struct {
	// Scale applies to every job; a zero TraceLen selects Standard.
	Scale Scale
	// Store persists results across processes (nil = in-memory only).
	Store *Store
	// Workers bounds concurrent simulations and sweep workers
	// (0 = GOMAXPROCS).
	Workers int
	// Deprecated: Seed is ignored. Sweeps no longer depend on a seed: every
	// RunAll walks one shared queue in a fixed costliest-first order.
	Seed uint64
	// Progress, when set, observes every RunAll job completion. Calls are
	// serialized engine-wide; Done/Total describe the sweep that
	// completed the job, so concurrent RunAll calls interleave their
	// counts. StderrProgress is a ready-made renderer for CLIs.
	Progress func(Progress)
	// Phases, when set, observes per-phase durations (queue_wait,
	// materialize, simulate, store_commit, shard) into a phase-labeled
	// latency histogram. Observability-only: results and content
	// addresses are identical with or without it.
	Phases *obs.HistogramVec
	// TelemetryInterval arms interval-sampled simulation telemetry: every
	// executed job additionally produces a timeline document sampled
	// every N measured instructions (0 = disabled). Derived data only —
	// content addresses, result bytes and cache behaviour are identical
	// at every setting; sim.DefaultTelemetryInterval is the service
	// default.
	TelemetryInterval uint64
}

// Engine executes and memoizes simulations. It is safe for concurrent use.
type Engine struct {
	scale             Scale
	store             *Store
	workers           int
	progress          func(Progress)
	phases            *obs.HistogramVec
	telemetryInterval uint64

	limit chan struct{}

	// progMu serializes progress callbacks across concurrent sweeps.
	progMu sync.Mutex

	mu       sync.Mutex
	memo     map[string]sim.Result
	inflight map[string]chan struct{}
	counters Counters
	gcTotals GCTotals
	// telemetryMemo caches encoded timeline documents by content address
	// (the store-less engines of cluster workers serve uploads from it);
	// telemetryMemoBytes tracks their footprint for TelemetryStats.
	telemetryMemo      map[string][]byte
	telemetryMemoBytes int64
}

// New builds an engine.
func New(opts Options) *Engine {
	if opts.Scale.TraceLen == 0 {
		opts.Scale = Standard
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{
		scale:             opts.Scale,
		store:             opts.Store,
		workers:           opts.Workers,
		progress:          opts.Progress,
		phases:            opts.Phases,
		telemetryInterval: opts.TelemetryInterval,
		limit:             make(chan struct{}, opts.Workers),
		memo:              make(map[string]sim.Result),
		inflight:          make(map[string]chan struct{}),
	}
}

// Scale returns the engine's scale.
func (e *Engine) Scale() Scale { return e.scale }

// Store returns the engine's persisted store (nil when in-memory only).
func (e *Engine) Store() *Store { return e.store }

// Counters returns a snapshot of the cache counters.
func (e *Engine) Counters() Counters {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.counters
}

// Lookup returns the already-computed result for a canonical job key
// (Job.CanonicalJSON) — from the in-process memo or the persisted store —
// without ever simulating. It is the read-only probe the analytics layer
// aggregates over: an analytics request must reflect completed work, never
// trigger new work. Counters are untouched; Lookup is monitoring-neutral.
func (e *Engine) Lookup(key string) (sim.Result, bool) {
	e.mu.Lock()
	r, ok := e.memo[key]
	e.mu.Unlock()
	if ok {
		return r, true
	}
	if e.store != nil {
		if r, ok := e.store.Get(key); ok {
			return r, true
		}
	}
	return sim.Result{}, false
}

// HasKey reports whether the result for a canonical job key is already
// available: a memo probe by key, else a store stat at addr, the key's
// content address (AddressOfKey). Callers that probe the same cells on
// every request — analytics ETags — keep both precomputed, so a probe
// encodes and hashes nothing. The stat is not cached: other processes
// sharing the store directory complete results too. Like Store.Has it can
// answer true for a corrupt store entry until a read heals it; Lookup
// remains authoritative.
func (e *Engine) HasKey(key, addr string) bool {
	e.mu.Lock()
	_, ok := e.memo[key]
	e.mu.Unlock()
	return ok || e.store != nil && e.store.Has(addr)
}

// Run executes one job, deduplicated three ways: concurrent identical jobs
// coalesce onto one execution, repeated jobs hit the in-process memo, and
// repeated jobs across processes hit the persisted store. It is for
// catalogue-trace jobs, whose materialization cannot fail once validated;
// jobs that may reference registry traces (deletable at runtime) should
// use RunContext and handle the error.
func (e *Engine) Run(j Job) sim.Result {
	res, _, err := e.run(context.Background(), j, j.CanonicalJSON(e.scale))
	if err != nil { // background ctx: only a trace-supply failure
		panic(fmt.Sprintf("engine: running %s: %v", j, err))
	}
	return res
}

// RunContext is Run with cooperative cancellation and an error return:
// when ctx is done before the simulation starts (while queued on the
// worker semaphore or waiting on an identical in-flight job), it returns
// ctx's error without simulating — a simulation that already started runs
// to completion, cancellation is job-granular, never mid-simulation. It
// also surfaces trace-materialization failures (a registry trace deleted
// or damaged between validation and execution) instead of panicking.
func (e *Engine) RunContext(ctx context.Context, j Job) (sim.Result, error) {
	res, _, err := e.run(ctx, j, j.CanonicalJSON(e.scale))
	return res, err
}

// run executes j under key, its canonical encoding at the engine's
// scale. The key indexes all three layers: the memo and single-flight
// maps use it verbatim, the store hashes it into the job's content
// address and persists it inside the record.
func (e *Engine) run(ctx context.Context, j Job, key string) (res sim.Result, cached bool, err error) {
	for {
		e.mu.Lock()
		if r, ok := e.memo[key]; ok {
			e.counters.MemoHits++
			e.mu.Unlock()
			return r, true, nil
		}
		ch, busy := e.inflight[key]
		if !busy {
			ch = make(chan struct{})
			e.inflight[key] = ch
			e.mu.Unlock()
			break
		}
		e.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return sim.Result{}, false, ctx.Err()
		}
	}

	// If execute panics (programmer error — inputs are validated before
	// jobs are built), still wake single-flight waiters and drop the
	// inflight claim so the engine isn't poisoned for the key; the panic
	// itself propagates to the caller.
	completed := false
	defer func() {
		e.mu.Lock()
		if completed {
			e.memo[key] = res
			if cached {
				e.counters.StoreHits++
			} else {
				e.counters.Simulated++
			}
		}
		ch := e.inflight[key]
		delete(e.inflight, key)
		e.mu.Unlock()
		close(ch)
	}()

	if e.store != nil {
		if r, ok := e.store.Get(key); ok {
			res, cached = r, true
		}
	}
	if !cached {
		// The semaphore wait is the last cancellation point: once a
		// simulation starts it runs to completion, so a cancelled sweep
		// stops at the next job boundary rather than corrupting state
		// mid-step.
		_, _, queued := e.phase(ctx, "queue_wait")
		select {
		case e.limit <- struct{}{}:
			queued()
		case <-ctx.Done():
			queued()
			return sim.Result{}, false, ctx.Err()
		}
		defer func() { <-e.limit }()
		if err := ctx.Err(); err != nil {
			return sim.Result{}, false, err
		}
		var tel *sim.Telemetry
		res, tel, err = e.execute(ctx, j)
		if err != nil {
			// Not memoized: the failure may be transient state (a trace
			// deleted mid-flight), and completed stays false so waiters
			// retry rather than inheriting a zero result.
			return sim.Result{}, false, err
		}
		if tel != nil {
			// Persisted before the result commit: by the time a job is
			// observable as complete its timeline already exists, so the
			// serving layer's answer degrades 409 (computing) → 200, never
			// through a complete-but-timeline-less window.
			e.saveTelemetry(key, tel)
		}
	}
	if !cached && e.store != nil {
		_, _, committed := e.phase(ctx, "store_commit")
		// Persistence is best-effort: a read-only cache dir must not
		// fail the sweep.
		e.store.Put(key, res) //nolint:errcheck
		committed()
	}
	completed = true
	return res, cached, nil
}

// config returns the default system config at this engine's scale.
// Telemetry arming rides here — an engine option, never a job override,
// so it stays outside every canonical encoding.
func (e *Engine) config(cores int) sim.Config {
	cfg := sim.DefaultConfig(cores)
	cfg.WarmupInstructions = e.scale.Warmup
	cfg.SimInstructions = e.scale.Sim
	cfg.TelemetryInterval = e.telemetryInterval
	return cfg
}

// phase opens an engine-phase span ("engine."+name) under ctx and
// returns it plus a completion func that ends the span and feeds the
// phase histogram. Instrumentation stops at this granularity — phases
// wrap whole simulations and materializations, never the per-record
// step loop, so the hot path stays allocation-free.
func (e *Engine) phase(ctx context.Context, name string, attrs ...obs.Attr) (context.Context, *obs.Span, func()) {
	start := time.Now()
	ctx, sp := obs.Start(ctx, "engine."+name, attrs...)
	return ctx, sp, func() {
		sp.End()
		e.phases.Observe(name, time.Since(start).Seconds())
	}
}

// execute runs one job and returns its result plus the collected
// telemetry timeline (nil when telemetry is disabled).
func (e *Engine) execute(ctx context.Context, j Job) (sim.Result, *sim.Telemetry, error) {
	cores := len(j.Traces)
	cfg := j.Overrides.Apply(e.config(cores))
	l1s := Broadcast(j.L1, cores)
	l2s := Broadcast(j.L2, cores)

	specs := make([]sim.CoreSpec, cores)
	for i, name := range j.Traces {
		// The process-wide materialized-trace cache hands every job of a
		// sweep (and every concurrent sweep worker, single-flight) one shared
		// immutable record slab per {trace, length} instead of
		// regenerating it per job. Materialization can fail at runtime for
		// registry-backed traces (deleted or damaged after validation), so
		// it flows through the error return rather than panicking —
		// catalogue generation remains infallible for validated jobs.
		recs, err := e.materialize(ctx, name, j)
		if err != nil {
			return sim.Result{}, nil, err
		}
		spec := sim.CoreSpec{
			Trace:        trace.NewLooping(trace.NewRecordsReader(recs)),
			L1Prefetcher: prefetchers.MustNew(l1s[i]),
		}
		if l2s[i] != "" && l2s[i] != "none" {
			spec.L2Prefetcher = prefetchers.MustNew(l2s[i])
		}
		specs[i] = spec
	}
	sys, err := sim.New(cfg, specs)
	if err != nil {
		panic(fmt.Sprintf("engine: building system for %s: %v", j, err))
	}
	_, _, simulated := e.phase(ctx, "simulate", obs.Int("cores", cores))
	res := sys.Run()
	simulated()
	return res, sys.Telemetry(), nil
}

// materialize wraps workload.MaterializeRecordsCached in a
// trace-attributed phase span recording whether the slab was a cache
// hit or a fresh generation.
func (e *Engine) materialize(ctx context.Context, name string, j Job) (trace.Records, error) {
	_, sp, done := e.phase(ctx, "materialize", obs.String("trace", name))
	recs, hit, err := workload.MaterializeRecordsCached(name, e.scale.TraceLen)
	if hit {
		sp.SetAttr("cache", "hit")
	} else {
		sp.SetAttr("cache", "miss")
	}
	done()
	if err != nil {
		return nil, fmt.Errorf("engine: materializing trace for %s: %w", j, err)
	}
	return recs, nil
}

// RunAll executes a sweep and returns its results in input order. Each
// distinct job runs once: every worker pulls the next distinct job from
// one shared queue, costliest first (Job.Instructions), so multi-core
// jobs start early and no worker idles while another holds a long list.
// A duplicate index gets a copy of its job's result. Every index feeds
// the Progress callback with an ETA, duplicates as Cached. Like Run, it is
// for catalogue-trace jobs and panics on a trace-supply failure;
// registry-referencing sweeps go through RunAllContext.
func (e *Engine) RunAll(jobs []Job) []sim.Result {
	results, err := e.RunAllContext(context.Background(), jobs, nil)
	if err != nil { // background ctx: only a trace-supply failure
		panic(fmt.Sprintf("engine: running sweep: %v", err))
	}
	return results
}

// sweepEntry is one distinct job of a sweep: its canonical key, its cost
// (Job.Instructions) and every input index that asks for it, the first of
// which runs.
type sweepEntry struct {
	key  string
	cost uint64
	idx  []int
}

// RunAllContext is RunAll with cooperative cancellation and an optional
// per-call progress observer (nil falls back to Options.Progress). When
// ctx is cancelled, every worker stops at its next job boundary — a
// simulation already in flight runs to completion, everything not yet
// started is skipped — and ctx's error is returned alongside the partial
// results: completed indices hold real results, skipped ones are zero.
// Partial results still land in the memo and store, so a resubmitted sweep
// resumes instead of recomputing. A job whose trace supply fails (a
// registry trace deleted mid-sweep) stops its worker and the first such
// error is returned the same way — never swallowed into silent zero rows.
func (e *Engine) RunAllContext(ctx context.Context, jobs []Job, progress func(Progress)) ([]sim.Result, error) {
	results := make([]sim.Result, len(jobs))
	if progress == nil {
		progress = e.progress
	}
	// One entry per distinct key, costliest first; the sort is stable, so
	// equal-cost entries keep input order.
	var queue []sweepEntry
	byKey := make(map[string]int, len(jobs))
	for i, j := range jobs {
		key := j.CanonicalJSON(e.scale)
		if n, ok := byKey[key]; ok {
			queue[n].idx = append(queue[n].idx, i)
			continue
		}
		byKey[key] = len(queue)
		queue = append(queue, sweepEntry{key: key, cost: j.Instructions(e.scale), idx: []int{i}})
	}
	sort.SliceStable(queue, func(a, b int) bool { return queue[a].cost > queue[b].cost })
	workers := min(e.workers, len(queue))

	start := time.Now()
	var (
		done, simulated int
		next            atomic.Int64
		wg              sync.WaitGroup
	)
	// The job label and content address are computed by the caller,
	// outside progMu — hashing under a mutex shared by every worker would
	// serialize the cache-hit fast path.
	report := func(label, addr string, cached bool) {
		e.progMu.Lock()
		defer e.progMu.Unlock()
		done++
		if !cached {
			simulated++
		}
		elapsed := time.Since(start)
		progress(Progress{
			Done: done, Total: len(jobs), Cached: cached,
			Job: label, Address: addr,
			Elapsed:   elapsed,
			Remaining: estimateRemaining(elapsed, simulated, done, len(jobs)),
		})
	}

	// A panic inside a bare goroutine would kill the whole process (and
	// gazeserve with it) — capture the first one and re-raise it on the
	// caller's goroutine, where net/http's handler recover can see it.
	// Non-cancellation job errors (trace supply) are captured the same
	// way and returned.
	var (
		panicOnce sync.Once
		panicked  any
		errOnce   sync.Once
		jobErr    error
	)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() { panicked = r })
				}
			}()
			sctx, _, shardDone := e.phase(ctx, "shard", obs.Int("shard", w))
			defer shardDone()
			for ctx.Err() == nil {
				n := int(next.Add(1)) - 1
				if n >= len(queue) {
					return
				}
				ent := queue[n]
				res, cached, err := e.run(sctx, jobs[ent.idx[0]], ent.key)
				if err != nil {
					if ctx.Err() == nil {
						errOnce.Do(func() { jobErr = err })
					}
					return
				}
				if dups := len(ent.idx) - 1; dups > 0 {
					// Each copy is a memo hit, as if its index had run.
					e.mu.Lock()
					e.counters.MemoHits += uint64(dups)
					e.mu.Unlock()
				}
				for _, i := range ent.idx {
					results[i] = res
				}
				if progress != nil {
					addr := AddressOfKey(ent.key)
					for k, i := range ent.idx {
						report(jobs[i].String(), addr, cached || k > 0)
					}
				}
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	if err := ctx.Err(); err != nil {
		return results, err
	}
	return results, jobErr
}
