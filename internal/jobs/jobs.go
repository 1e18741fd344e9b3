// Package jobs turns the engine's declarative experiment specs into
// durable background work — the asynchronous face of gazeserve. A Manager
// accepts sweep/simulate specs as jobs, coalesces identical in-flight
// submissions through content-addressed IDs (built from the same
// engine.Job canonical encodings the result store is keyed by), runs them
// on a bounded worker pool with FIFO + priority lanes, tracks live
// engine.Progress per job, cancels cooperatively at job boundaries, and
// journals every state transition to disk so a restarted process resumes
// queued jobs and surfaces interrupted ones instead of silently losing
// them.
//
// The package is deliberately ignorant of HTTP and of the request types
// it executes: a Compiler injected at Open turns a Spec's raw request
// into engine jobs plus a result-assembly closure, so internal/server
// reuses exactly the validation and work caps of its synchronous
// handlers without an import cycle.
package jobs

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/sim"
)

// State is a job's lifecycle position. Jobs move queued → running →
// one of the terminal states; interrupted is terminal but resubmittable
// (Submit re-queues a job whose previous attempt failed, was canceled or
// was interrupted, under the same content-addressed ID).
type State string

// Job states.
const (
	Queued      State = "queued"
	Running     State = "running"
	Succeeded   State = "succeeded"
	Failed      State = "failed"
	Canceled    State = "canceled"
	Interrupted State = "interrupted"
)

// Terminal reports whether no further transitions can happen without a
// resubmission.
func (s State) Terminal() bool {
	switch s {
	case Succeeded, Failed, Canceled, Interrupted:
		return true
	}
	return false
}

// Priority selects a dispatch lane. The dispatcher always drains the high
// lane before the normal one; within a lane jobs start in FIFO order.
// Priority is deliberately excluded from the job ID: the same work
// submitted on both lanes is still the same work and coalesces.
type Priority string

// Dispatch lanes.
const (
	Normal Priority = "normal"
	High   Priority = "high"
)

// Spec is what clients submit: a request kind ("sweep", "simulate"), its
// raw declarative body, and an optional lane. The raw body is kept
// verbatim so it journals and replays without the jobs package knowing
// its schema.
type Spec struct {
	Type     string          `json:"type"`
	Request  json.RawMessage `json:"request"`
	Priority Priority        `json:"priority,omitempty"`
}

// Plan is a compiled spec: the engine jobs to run and a closure that
// assembles the client-facing result document from their results.
// Fingerprint is the compiler's normalized spelling of the request (field
// order and whitespace canonicalized); it feeds the job ID so two
// byte-different but semantically identical submissions coalesce, while
// requests that compile to the same engine jobs but shape their responses
// differently (a one-value axis sweep versus plain overrides) stay
// distinct.
type Plan struct {
	Fingerprint string
	Jobs        []engine.Job
	Finalize    func(results []sim.Result) any
}

// Compiler validates a spec and compiles it to a Plan. Compilation errors
// are client errors (the HTTP layer maps them to 400s).
type Compiler func(spec Spec) (*Plan, error)

// Executor runs a compiled plan's engine jobs and returns their results
// in input order. It is the manager's dispatch seam: the default executor
// runs everything on the local engine (RunAllContext), while a cluster
// coordinator substitutes one that leases the work to remote workers.
// The contract mirrors RunAllContext: cooperative cancellation through
// ctx (partial results plus ctx.Err()), one progress callback per
// completed engine job, and the first deterministic job failure returned
// as the error.
type Executor func(ctx context.Context, jobs []engine.Job, progress func(engine.Progress)) ([]sim.Result, error)

// Progress is a job's live advancement, fed by the engine's per-completion
// callbacks.
type Progress struct {
	// Done and Total count engine jobs within this job's sweep; Total is
	// set when the job starts running.
	Done  int `json:"done"`
	Total int `json:"total"`
	// Cached counts completions served from the memo or store.
	Cached int `json:"cached"`
	// Elapsed is the time since the job started running; Remaining is the
	// engine's ETA extrapolation (0 until the first simulation completes).
	Elapsed   time.Duration `json:"elapsed"`
	Remaining time.Duration `json:"remaining"`
}

// Record is a point-in-time snapshot of a job, safe to hold after the
// manager moves on.
type Record struct {
	ID    string
	Spec  Spec
	State State
	// Error is set for failed jobs and explains canceled/interrupted ones.
	Error string
	// Recovered marks a job this process restored from the journal at
	// Open and had to act on: a queued job it resumed, a running one it
	// marked interrupted, or a queued one it failed because its spec no
	// longer compiles.
	Recovered bool
	Created   time.Time
	Started   time.Time
	Finished  time.Time
	Progress  Progress
	// TraceID correlates the job with its spans (GET /debug/traces?job=).
	// Set when the job starts running under a tracer; the submitter's
	// trace ID when the submission carried one.
	TraceID string
	// Timings is the terminal phase breakdown (nil until the job
	// finishes). Persisted in the journal, so it survives restarts.
	Timings *Timings
	// Addresses lists the content addresses of the engine jobs a
	// succeeded job ran (deduped, plan order) — the correlation handles
	// for per-result artifacts like timeline documents. Persisted in the
	// journal like Timings.
	Addresses []string
}

// Timings is a finished job's phase-duration breakdown in milliseconds.
// Phases decomposes the job's wall clock — queue_wait + execute +
// finalize sums to ≈ TotalMS. Spans aggregates the durations of every
// instrumentation span recorded under the job (engine.materialize,
// engine.simulate, engine.shard, cluster.* ...); those ran concurrently
// across engine workers, so their sum routinely exceeds wall time.
type Timings struct {
	TotalMS int64            `json:"total_ms"`
	Phases  map[string]int64 `json:"phases"`
	Spans   map[string]int64 `json:"spans,omitempty"`
}

// record is the manager-internal mutable job. Everything is guarded by
// Manager.mu.
type record struct {
	Record
	plan            *Plan
	cancel          context.CancelFunc
	cancelRequested bool
	doc             any
	subs            map[chan Record]struct{}
	// traceCtx is the submitter's span identity, captured by
	// SubmitContext so the background run continues the same trace.
	traceCtx obs.SpanContext
}

// Sentinel errors, mapped to HTTP statuses by internal/server.
var (
	ErrNotFound  = errors.New("jobs: no such job")
	ErrQueueFull = errors.New("jobs: queue is full")
	ErrClosed    = errors.New("jobs: manager is shut down")
	ErrNotReady  = errors.New("jobs: result not available")
	ErrTerminal  = errors.New("jobs: job already finished")
)

// Counters summarizes the manager's jobs for monitoring (/stats).
// Queued..Interrupted count current records per state; Recovered counts
// queued jobs this process resumed from the journal at Open.
type Counters struct {
	Queued      int `json:"queued"`
	Running     int `json:"running"`
	Succeeded   int `json:"succeeded"`
	Failed      int `json:"failed"`
	Canceled    int `json:"canceled"`
	Interrupted int `json:"interrupted"`
	Recovered   int `json:"recovered"`
}

// Options configures a Manager.
type Options struct {
	// Engine runs the compiled jobs; shared with the synchronous handlers
	// so background and foreground work coalesce onto one memo. Required.
	Engine *engine.Engine
	// Compile turns specs into plans. Required.
	Compile Compiler
	// Dir persists the journal (Dir/journal.ndjson) and result documents
	// (Dir/results/<id>.json). Empty disables durability: jobs live and
	// die with the process.
	Dir string
	// Workers bounds concurrently running jobs (not engine workers — each
	// running job still fans out across the engine's workers). Default 2.
	Workers int
	// QueueDepth bounds queued jobs across both lanes; Submit returns
	// ErrQueueFull beyond it. Default 64.
	QueueDepth int
	// Execute runs a plan's engine jobs. Nil selects the local engine
	// (Engine.RunAllContext); a cluster coordinator injects its
	// lease-to-workers executor here.
	Execute Executor
	// Tracer, when set, records a root span per job run (continuing the
	// submitter's trace when SubmitContext captured one) plus compile
	// spans at submission. Observability-only.
	Tracer *obs.Tracer
	// QueueWait, when set, observes each dispatched job's submit→start
	// wait into a latency histogram.
	QueueWait *obs.Histogram
}

// Manager owns the job table, the dispatch lanes and the journal. It is
// safe for concurrent use.
type Manager struct {
	eng        *engine.Engine
	compile    Compiler
	execute    Executor
	workers    int
	queueDepth int
	journal    *journal
	dir        string
	tracer     *obs.Tracer
	queueWait  *obs.Histogram

	mu        sync.Mutex
	cond      *sync.Cond
	recs      map[string]*record
	order     []string // submission order, for List
	lanes     map[Priority][]string
	running   int
	recovered int
	closing   bool

	dispatcherDone chan struct{}
}

// Open builds a Manager, replays the journal in opts.Dir (recovering
// queued jobs and marking crashed-while-running ones interrupted),
// compacts it, and starts the dispatcher.
func Open(opts Options) (*Manager, error) {
	if opts.Engine == nil || opts.Compile == nil {
		return nil, errors.New("jobs: Options.Engine and Options.Compile are required")
	}
	if opts.Workers <= 0 {
		opts.Workers = 2
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 64
	}
	if opts.Execute == nil {
		eng := opts.Engine
		opts.Execute = func(ctx context.Context, js []engine.Job, progress func(engine.Progress)) ([]sim.Result, error) {
			return eng.RunAllContext(ctx, js, progress)
		}
	}
	m := &Manager{
		eng:            opts.Engine,
		compile:        opts.Compile,
		execute:        opts.Execute,
		workers:        opts.Workers,
		queueDepth:     opts.QueueDepth,
		dir:            opts.Dir,
		tracer:         opts.Tracer,
		queueWait:      opts.QueueWait,
		recs:           make(map[string]*record),
		lanes:          map[Priority][]string{High: nil, Normal: nil},
		dispatcherDone: make(chan struct{}),
	}
	m.cond = sync.NewCond(&m.mu)
	if opts.Dir != "" {
		if err := os.MkdirAll(filepath.Join(opts.Dir, "results"), 0o755); err != nil {
			return nil, fmt.Errorf("jobs: opening journal dir: %w", err)
		}
		j, entries, err := openJournal(filepath.Join(opts.Dir, "journal.ndjson"))
		if err != nil {
			return nil, err
		}
		m.journal = j
		m.recover(entries)
		// Compact: one queued entry (carrying the spec) plus at most one
		// state entry per live job replaces the full history — and
		// rewriting atomically heals any torn tail the crash left behind.
		m.journal.rewrite(m.compactedEntries()) //nolint:errcheck // durability is best-effort
	}
	go m.dispatch()
	return m, nil
}

// Dir returns the manager's durable directory ("" when not durable).
func (m *Manager) Dir() string { return m.dir }

// Accepting reports whether Submit would currently enqueue work — false
// from the first Shutdown call on. It is the jobs half of the server's
// readiness probe: a draining process should fall out of load-balancer
// rotation before its queue refuses submissions with 503s.
func (m *Manager) Accepting() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return !m.closing
}

// idFor derives the job's content-addressed identity from the compiled
// work itself: the spec kind, the compiler's normalized request spelling,
// and the canonical encoding of every engine job (which folds in the
// engine scale, budgets and the store schema version — the same preimage
// the result store is keyed by). Two submissions that would run the same
// simulations and shape the same response hash identically and coalesce.
func (m *Manager) idFor(spec Spec, plan *Plan) string {
	h := sha256.New()
	scale := m.eng.Scale()
	io.WriteString(h, "jobs/v1\n")
	io.WriteString(h, spec.Type)
	io.WriteString(h, "\n")
	io.WriteString(h, plan.Fingerprint)
	io.WriteString(h, "\n")
	for _, j := range plan.Jobs {
		io.WriteString(h, j.CanonicalJSON(scale))
		io.WriteString(h, "\n")
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Submit compiles and enqueues a spec. The returned bool reports
// coalescing: true when an identical job was already queued, running or
// succeeded and that record is returned instead of enqueueing new work.
// A previous attempt that failed, was canceled or was interrupted is
// re-queued under the same ID.
func (m *Manager) Submit(spec Spec) (Record, bool, error) {
	return m.SubmitContext(context.Background(), spec)
}

// SubmitContext is Submit carrying the submitter's context for
// observability only: the compile span lands under the caller's trace,
// and the span identity is captured so the background run continues the
// same trace end to end. Execution is unaffected — the job never
// inherits the request's cancellation.
func (m *Manager) SubmitContext(ctx context.Context, spec Spec) (Record, bool, error) {
	if spec.Priority == "" {
		spec.Priority = Normal
	}
	if spec.Priority != Normal && spec.Priority != High {
		return Record{}, false, fmt.Errorf("jobs: unknown priority %q (want %q or %q)", spec.Priority, Normal, High)
	}
	_, csp := obs.Start(obs.WithTracer(ctx, m.tracer), "job.compile", obs.String("type", spec.Type))
	plan, err := m.compile(spec)
	csp.End()
	if err != nil {
		return Record{}, false, err
	}
	id := m.idFor(spec, plan)
	traceCtx := obs.SpanContextFrom(ctx)

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closing {
		return Record{}, false, ErrClosed
	}
	if rec, ok := m.recs[id]; ok {
		switch rec.State {
		case Queued, Running:
			return rec.Record, true, nil
		case Succeeded:
			if m.resultAvailableLocked(rec) {
				return rec.Record, true, nil
			}
			// Succeeded but the document is gone (the best-effort result
			// write failed and the process restarted): coalescing onto it
			// would make the work permanently unfetchable — re-run instead.
		}
		// Failed / canceled / interrupted: re-run under the same identity.
		if err := m.queueDepthOK(); err != nil {
			return Record{}, false, err
		}
		rec.Spec = spec
		rec.plan = plan
		rec.State = Queued
		rec.Error = ""
		rec.Started, rec.Finished = time.Time{}, time.Time{}
		rec.Progress = Progress{}
		rec.cancelRequested = false
		rec.doc = nil
		rec.TraceID, rec.Timings, rec.Addresses = "", nil, nil
		rec.traceCtx = traceCtx
		m.enqueueLocked(rec)
		return rec.Record, false, nil
	}
	if err := m.queueDepthOK(); err != nil {
		return Record{}, false, err
	}
	rec := &record{
		Record:   Record{ID: id, Spec: spec, State: Queued, Created: time.Now()},
		plan:     plan,
		traceCtx: traceCtx,
	}
	m.recs[id] = rec
	m.order = append(m.order, id)
	m.enqueueLocked(rec)
	return rec.Record, false, nil
}

func (m *Manager) queueDepthOK() error {
	if len(m.lanes[High])+len(m.lanes[Normal]) >= m.queueDepth {
		return ErrQueueFull
	}
	return nil
}

// enqueueLocked appends the (already queued-state) record to its lane,
// journals the transition and wakes the dispatcher.
func (m *Manager) enqueueLocked(rec *record) {
	m.lanes[rec.Spec.Priority] = append(m.lanes[rec.Spec.Priority], rec.ID)
	m.journalLocked(rec)
	m.notifyLocked(rec)
	m.cond.Broadcast()
}

// popLocked removes and returns the next job to start: high lane first,
// FIFO within a lane; "" when both lanes are empty.
func (m *Manager) popLocked() string {
	for _, lane := range []Priority{High, Normal} {
		if ids := m.lanes[lane]; len(ids) > 0 {
			id := ids[0]
			m.lanes[lane] = ids[1:]
			return id
		}
	}
	return ""
}

// dispatch starts queued jobs whenever a worker slot is free, until
// shutdown.
func (m *Manager) dispatch() {
	defer close(m.dispatcherDone)
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		for !m.closing && (m.running >= m.workers || m.peekLocked() == "") {
			m.cond.Wait()
		}
		if m.closing {
			return
		}
		rec := m.recs[m.popLocked()]
		ctx, cancel := context.WithCancel(context.Background())
		rec.cancel = cancel
		rec.State = Running
		rec.Started = time.Now()
		// Known before the first engine completion reports it, so a job
		// cancelled before any completes still reads 0 of its total.
		rec.Progress.Total = len(rec.plan.Jobs)
		m.running++
		m.journalLocked(rec)
		m.notifyLocked(rec)
		go m.runJob(ctx, rec)
	}
}

func (m *Manager) peekLocked() string {
	for _, lane := range []Priority{High, Normal} {
		if ids := m.lanes[lane]; len(ids) > 0 {
			return ids[0]
		}
	}
	return ""
}

// runJob executes one job on the shared engine and records its terminal
// state. Runs on its own goroutine; one per running job.
func (m *Manager) runJob(ctx context.Context, rec *record) {
	// The root span continues the submitter's trace (when one was
	// captured) and every span ended under this context feeds the job's
	// phase-timing collector. Spec/Created/Started are stable while the
	// job runs, so they are read without m.mu like rec.plan below.
	ctx = obs.WithTracer(ctx, m.tracer)
	ctx = obs.WithRemoteParent(ctx, rec.traceCtx)
	collector := obs.NewTimings()
	ctx = obs.WithTimings(ctx, collector)
	ctx, root := obs.Start(ctx, "job.run",
		obs.String("job", rec.ID), obs.String("type", rec.Spec.Type))
	queueWait := rec.Started.Sub(rec.Created)
	m.queueWait.Observe(queueWait.Seconds())
	if m.tracer != nil {
		root.SetAttr("queue_wait_ms", strconv.FormatInt(queueWait.Milliseconds(), 10))
		m.mu.Lock()
		rec.TraceID = root.TraceID
		m.mu.Unlock()
	}

	var (
		results []sim.Result
		runErr  error
	)
	executeStart := time.Now()
	func() {
		// An engine panic (programmer error) must land the job in failed,
		// not kill the process.
		defer func() {
			if p := recover(); p != nil {
				runErr = fmt.Errorf("jobs: engine panic: %v", p)
			}
		}()
		ectx, esp := obs.Start(ctx, "job.execute")
		defer esp.End()
		results, runErr = m.execute(ectx, rec.plan.Jobs, func(p engine.Progress) {
			m.observeProgress(rec, p)
		})
	}()
	executeDur := time.Since(executeStart)
	finalizeStart := time.Now()
	var doc any
	if runErr == nil {
		func() {
			defer func() {
				if p := recover(); p != nil {
					runErr = fmt.Errorf("jobs: assembling result: %v", p)
				}
			}()
			_, fsp := obs.Start(ctx, "job.finalize")
			defer fsp.End()
			doc = rec.plan.Finalize(results)
		}()
	}
	finalizeDur := time.Since(finalizeStart)
	root.End()

	m.mu.Lock()
	defer m.mu.Unlock()
	m.running--
	rec.Finished = time.Now()
	rec.Timings = newTimings(rec.Finished.Sub(rec.Created), queueWait, executeDur, finalizeDur, collector)
	switch {
	case rec.cancelRequested:
		// An acknowledged Cancel (the client's 202) is authoritative even
		// when it raced the last engine job's completion: the job lands in
		// canceled either way. Completed work is not lost — it is memoized
		// in the engine, so a resubmission replays it instantly.
		rec.State = Canceled
		rec.Error = "canceled by request"
	case runErr == nil:
		rec.State = Succeeded
		rec.doc = doc
		rec.Addresses = planAddresses(m.eng.Scale(), rec.plan)
		if m.journal != nil {
			// Result durability is best-effort like the engine store: a
			// full disk must not fail the job whose results are still in
			// memory. Once the document IS durable, drop the in-memory
			// copy — retaining every finished sweep would grow the job
			// table without bound in a long-lived server.
			if writeResultFile(m.resultPath(rec.ID), doc) == nil {
				rec.doc = nil
			}
		}
	case errors.Is(runErr, context.Canceled) && m.closing:
		rec.State = Interrupted
		rec.Error = "interrupted by shutdown"
	default:
		rec.State = Failed
		rec.Error = runErr.Error()
	}
	// The compiled plan (engine-job grid + assembly closure) is dead
	// weight on a terminal record; a resubmission recompiles it.
	rec.plan = nil
	m.journalLocked(rec)
	m.notifyLocked(rec)
	m.cond.Broadcast()
}

// planAddresses lists the plan's engine-job content addresses, deduped
// in plan order (grids can repeat an address through shared baselines).
func planAddresses(scale engine.Scale, plan *Plan) []string {
	seen := make(map[string]bool, len(plan.Jobs))
	var out []string
	for _, j := range plan.Jobs {
		addr := j.ContentAddress(scale)
		if !seen[addr] {
			seen[addr] = true
			out = append(out, addr)
		}
	}
	return out
}

// newTimings assembles a job's terminal phase breakdown: the wall-clock
// decomposition (which sums to ≈ total) plus the aggregated span
// durations collected during the run. job.* spans are excluded — they
// duplicate the decomposition phases.
func newTimings(total, queueWait, execute, finalize time.Duration, c *obs.Timings) *Timings {
	t := &Timings{
		TotalMS: total.Milliseconds(),
		Phases: map[string]int64{
			"queue_wait": queueWait.Milliseconds(),
			"execute":    execute.Milliseconds(),
			"finalize":   finalize.Milliseconds(),
		},
	}
	for name, d := range c.Snapshot() {
		if strings.HasPrefix(name, "job.") {
			continue
		}
		if t.Spans == nil {
			t.Spans = make(map[string]int64)
		}
		t.Spans[name] = d.Milliseconds()
	}
	return t
}

// resultAvailableLocked reports whether a succeeded job's document can
// still be served: held in memory, or persisted on disk. A non-durable
// manager always keeps the document in memory, so a nil doc there means
// lost.
func (m *Manager) resultAvailableLocked(rec *record) bool {
	if rec.doc != nil {
		return true
	}
	if m.journal == nil {
		return false
	}
	_, err := os.Stat(m.resultPath(rec.ID))
	return err == nil
}

// observeProgress folds one engine completion into the job's progress and
// fans it out to watchers.
func (m *Manager) observeProgress(rec *record, p engine.Progress) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rec.Progress.Done = p.Done
	rec.Progress.Total = p.Total
	if p.Cached {
		rec.Progress.Cached++
	}
	rec.Progress.Elapsed = p.Elapsed
	rec.Progress.Remaining = p.Remaining
	m.notifyLocked(rec)
}

// Cancel requests cooperative cancellation. A queued job lands in
// canceled immediately; a running job's context is cancelled and the
// engine stops at the next job boundary (the returned record still
// reads running until it does). Terminal jobs return ErrTerminal.
func (m *Manager) Cancel(id string) (Record, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rec, ok := m.recs[id]
	if !ok {
		return Record{}, ErrNotFound
	}
	switch rec.State {
	case Queued:
		m.removeQueuedLocked(id)
		rec.State = Canceled
		rec.Error = "canceled before start"
		rec.Finished = time.Now()
		rec.plan = nil
		m.journalLocked(rec)
		m.notifyLocked(rec)
	case Running:
		if !rec.cancelRequested {
			rec.cancelRequested = true
			rec.cancel()
		}
	default:
		return rec.Record, ErrTerminal
	}
	return rec.Record, nil
}

func (m *Manager) removeQueuedLocked(id string) {
	for lane, ids := range m.lanes {
		for i, qid := range ids {
			if qid == id {
				m.lanes[lane] = append(ids[:i], ids[i+1:]...)
				return
			}
		}
	}
}

// Get returns a snapshot of one job.
func (m *Manager) Get(id string) (Record, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rec, ok := m.recs[id]
	if !ok {
		return Record{}, false
	}
	return rec.Record, true
}

// List returns snapshots of every job in submission order.
func (m *Manager) List() []Record {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Record, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.recs[id].Record)
	}
	return out
}

// Counters returns the monitoring summary.
func (m *Manager) Counters() Counters {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := Counters{Recovered: m.recovered}
	for _, rec := range m.recs {
		switch rec.State {
		case Queued:
			c.Queued++
		case Running:
			c.Running++
		case Succeeded:
			c.Succeeded++
		case Failed:
			c.Failed++
		case Canceled:
			c.Canceled++
		case Interrupted:
			c.Interrupted++
		}
	}
	return c
}

// UsesTrace reports whether any queued or running job's compiled plan
// references the named trace. It is the in-use protection behind
// DELETE /traces/{addr}: a trace that live background work will
// materialize must not be deleted out from under it. Terminal jobs drop
// their plans and never count.
func (m *Manager) UsesTrace(name string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, rec := range m.recs {
		if rec.plan == nil || rec.State.Terminal() {
			continue
		}
		for _, j := range rec.plan.Jobs {
			for _, tr := range j.Traces {
				if tr == name {
					return true
				}
			}
		}
	}
	return false
}

// LiveAddresses returns the content addresses of every engine job a
// queued or running background job will still run — the jobs-side ref
// source for result-store GC (engine.Engine.GC). A collector that deleted
// one of these entries would force a queued job to re-simulate work the
// store already holds; terminal jobs drop their plans and hold no refs.
func (m *Manager) LiveAddresses() map[string]bool {
	scale := m.eng.Scale()
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]bool)
	for _, rec := range m.recs {
		if rec.plan == nil || rec.State.Terminal() {
			continue
		}
		for _, j := range rec.plan.Jobs {
			out[j.ContentAddress(scale)] = true
		}
	}
	return out
}

// Result returns a succeeded job's result document: the in-memory value
// Finalize produced, or — after a restart — the persisted document as
// json.RawMessage. Non-succeeded jobs return ErrNotReady (wrapped with
// the state), unknown IDs ErrNotFound.
func (m *Manager) Result(id string) (any, error) {
	m.mu.Lock()
	rec, ok := m.recs[id]
	if !ok {
		m.mu.Unlock()
		return nil, ErrNotFound
	}
	if rec.State != Succeeded {
		err := fmt.Errorf("%w: job is %s", ErrNotReady, rec.State)
		m.mu.Unlock()
		return nil, err
	}
	if rec.doc != nil {
		doc := rec.doc
		m.mu.Unlock()
		return doc, nil
	}
	path := m.resultPath(id)
	m.mu.Unlock()
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w: result document missing: %v", ErrNotReady, err)
	}
	return json.RawMessage(data), nil
}

// Watch subscribes to a job's snapshots: the current one immediately,
// then one per state or progress change, latest-wins when the consumer
// lags. The channel closes after the terminal snapshot. The returned stop
// function unsubscribes (idempotent; call it when done).
func (m *Manager) Watch(id string) (<-chan Record, func(), error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rec, ok := m.recs[id]
	if !ok {
		return nil, nil, ErrNotFound
	}
	ch := make(chan Record, 1)
	ch <- rec.Record
	if rec.State.Terminal() {
		close(ch)
		return ch, func() {}, nil
	}
	if rec.subs == nil {
		rec.subs = make(map[chan Record]struct{})
	}
	rec.subs[ch] = struct{}{}
	stop := func() {
		m.mu.Lock()
		defer m.mu.Unlock()
		delete(rec.subs, ch)
	}
	return ch, stop, nil
}

// notifyLocked fans the record's current snapshot out to subscribers.
// Sends are latest-wins: every send happens under m.mu, so draining the
// one-slot buffer before re-sending can never block or race another
// sender. Terminal snapshots close the subscription channels.
func (m *Manager) notifyLocked(rec *record) {
	snap := rec.Record
	for ch := range rec.subs {
		select {
		case ch <- snap:
		default:
			select {
			case <-ch:
			default:
			}
			ch <- snap
		}
	}
	if rec.State.Terminal() {
		for ch := range rec.subs {
			close(ch)
		}
		rec.subs = nil
	}
}

// Shutdown stops the dispatcher (queued jobs stay queued — and journaled,
// so a durable manager resumes them on the next Open), drains running
// jobs, and flushes the journal. If ctx expires before the drain
// completes, running jobs are cancelled and land in interrupted. Submit
// returns ErrClosed from the first call on.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	alreadyClosing := m.closing
	m.closing = true
	m.cond.Broadcast()
	m.mu.Unlock()
	<-m.dispatcherDone

	drained := make(chan struct{})
	go func() {
		defer close(drained)
		m.mu.Lock()
		defer m.mu.Unlock()
		for m.running > 0 {
			m.cond.Wait()
		}
	}()
	select {
	case <-drained:
	case <-ctx.Done():
		m.mu.Lock()
		for _, rec := range m.recs {
			if rec.State == Running && rec.cancel != nil {
				rec.cancel()
			}
		}
		m.mu.Unlock()
		// Cancellation is job-boundary granular: the drain completes
		// once in-flight simulations finish.
		<-drained
	}
	if m.journal != nil && !alreadyClosing {
		return m.journal.close()
	}
	return nil
}

func (m *Manager) resultPath(id string) string {
	return filepath.Join(m.dir, "results", id+".json")
}

// writeResultFile persists the result document with the engine store's
// torn-write discipline.
func writeResultFile(path string, doc any) error {
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return engine.WriteFileAtomic(path, data)
}
