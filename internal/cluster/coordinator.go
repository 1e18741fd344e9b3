package cluster

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/sim"
)

// CoordinatorOptions configures a Coordinator.
type CoordinatorOptions struct {
	// Engine owns the authoritative memo and store results are adopted
	// into, and defines the scale every worker must match. Required.
	Engine *engine.Engine
	// LeaseTTL is the lease and worker-liveness deadline; heartbeats
	// (expected every TTL/3) renew it. Default 15s.
	LeaseTTL time.Duration
	// MaxLeaseBatch caps units per lease call regardless of what the
	// worker asks for. Default 16.
	MaxLeaseBatch int
	// Now overrides the clock for deterministic tests (default
	// time.Now).
	Now func() time.Time
	// Tracer, when set, records a synthesized "cluster.lease" span for
	// every settled or revoked lease, parented on the trace of the sweep
	// that enqueued the unit. Observability-only.
	Tracer *obs.Tracer
	// LeaseHold, when set, observes each lease's hold time — grant to
	// settle/requeue — in seconds. Observability-only.
	LeaseHold *obs.Histogram
}

// unitState tracks a unit through the lease table.
type unitState int

const (
	unitPending unitState = iota
	unitLeased
)

// unit is one engine job awaiting remote execution. Settled units
// (completed or failed) leave the table entirely — a late upload for a
// settled unit takes the duplicate path.
type unit struct {
	addr     string
	job      engine.Job
	state    unitState
	worker   string    // leaseholder id when leased
	deadline time.Time // lease expiry when leased
	leasedAt time.Time // lease grant time, for the hold-time histogram
	// traceparent is the trace identity of the first sweep that enqueued
	// the unit; workers propagate it so their spans join that trace.
	traceparent string
	// waiters maps each waiting Execute batch to the result indices
	// this unit fills in it (a batch can map several indices to one
	// address: baseline jobs fold PQ knobs out of their canonical
	// encoding, so distinct grid rows can share an address).
	waiters map[*batch][]int
}

// workerInfo is one registered worker.
type workerInfo struct {
	id          string
	name        string
	concurrency int
	deadline    time.Time
	leased      int
}

// Coordinator owns the lease table: which engine jobs are pending,
// which worker holds each lease and until when, and which Execute calls
// are waiting on each unit. It is safe for concurrent use. Expiry is
// checked lazily on every lease/heartbeat and eagerly via Tick (driven
// by a ticker in gazeserve), so a silent worker's units requeue even
// when no other worker is polling.
type Coordinator struct {
	eng       *engine.Engine
	ttl       time.Duration
	maxBatch  int
	now       func() time.Time
	tracer    *obs.Tracer
	leaseHold *obs.Histogram

	mu      sync.Mutex
	seq     int
	workers map[string]*workerInfo
	units   map[string]*unit
	queue   []string // pending-unit addresses, FIFO with lazy deletion

	leases       uint64
	releases     uint64
	results      uint64
	duplicates   uint64
	failures     uint64
	replications uint64
}

// NewCoordinator builds a coordinator.
func NewCoordinator(opts CoordinatorOptions) *Coordinator {
	if opts.Engine == nil {
		panic("cluster: CoordinatorOptions.Engine is required")
	}
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = 15 * time.Second
	}
	if opts.MaxLeaseBatch <= 0 {
		opts.MaxLeaseBatch = 16
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	return &Coordinator{
		eng:       opts.Engine,
		ttl:       opts.LeaseTTL,
		maxBatch:  opts.MaxLeaseBatch,
		now:       opts.Now,
		tracer:    opts.Tracer,
		leaseHold: opts.LeaseHold,
		workers:   make(map[string]*workerInfo),
		units:     make(map[string]*unit),
	}
}

// LeaseTTL returns the configured lease deadline.
func (c *Coordinator) LeaseTTL() time.Duration { return c.ttl }

// Register admits a worker after the compatibility handshake: the
// outcome-determining scale knobs (TraceLen, Warmup, Sim —
// TracesPerSuite only selects jobs) and the store schema version must
// match, or the worker would compute results under different content
// addresses than the coordinator hands out.
func (c *Coordinator) Register(req RegisterRequest) (RegisterResponse, error) {
	s := c.eng.Scale()
	if req.StoreSchemaVersion != engine.StoreSchemaVersion {
		return RegisterResponse{}, fmt.Errorf("%w: store schema v%d, coordinator runs v%d",
			ErrIncompatible, req.StoreSchemaVersion, engine.StoreSchemaVersion)
	}
	if req.Scale.TraceLen != s.TraceLen || req.Scale.Warmup != s.Warmup || req.Scale.Sim != s.Sim {
		return RegisterResponse{}, fmt.Errorf(
			"%w: scale {len %d warmup %d sim %d}, coordinator runs {len %d warmup %d sim %d}",
			ErrIncompatible, req.Scale.TraceLen, req.Scale.Warmup, req.Scale.Sim,
			s.TraceLen, s.Warmup, s.Sim)
	}
	conc := req.Concurrency
	if conc <= 0 {
		conc = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	id := fmt.Sprintf("w%d", c.seq)
	if name := sanitizeName(req.Name); name != "" {
		id = fmt.Sprintf("%s-%d", name, c.seq)
	}
	c.workers[id] = &workerInfo{
		id:          id,
		name:        req.Name,
		concurrency: conc,
		deadline:    c.now().Add(c.ttl),
	}
	return RegisterResponse{WorkerID: id, LeaseTTLMS: c.ttl.Milliseconds()}, nil
}

// sanitizeName keeps worker-supplied label characters that are safe in
// ids, URLs and log lines.
func sanitizeName(name string) string {
	out := make([]byte, 0, len(name))
	for i := 0; i < len(name) && len(out) < 32; i++ {
		c := name[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9', c == '-', c == '_', c == '.':
			out = append(out, c)
		}
	}
	return string(out)
}

// Deregister removes a worker gracefully, requeueing its leased units
// immediately instead of waiting out their deadlines.
func (c *Coordinator) Deregister(id string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.workers[id]; !ok {
		return ErrUnknownWorker
	}
	delete(c.workers, id)
	for addr, u := range c.units {
		if u.state == unitLeased && u.worker == id {
			c.requeueLocked(addr, u)
		}
	}
	return nil
}

// settleLeaseLocked observes a unit leaving the leased state — settled,
// failed or revoked — feeding the lease-hold histogram and recording a
// synthesized lease-lifecycle span on the trace of the sweep that
// enqueued the unit. Caller holds c.mu.
func (c *Coordinator) settleLeaseLocked(u *unit, outcome string) {
	if u.state != unitLeased || u.leasedAt.IsZero() {
		return
	}
	d := c.now().Sub(u.leasedAt)
	c.leaseHold.Observe(d.Seconds())
	if c.tracer != nil {
		parent, _ := obs.ParseTraceparent(u.traceparent)
		c.tracer.Observe(parent, "cluster.lease", u.leasedAt, d,
			obs.String("worker", u.worker), obs.String("outcome", outcome))
	}
}

// requeueLocked returns a leased unit to the pending queue (or drops it
// when no Execute batch waits on it any more).
func (c *Coordinator) requeueLocked(addr string, u *unit) {
	c.settleLeaseLocked(u, "requeued")
	c.releases++
	if len(u.waiters) == 0 {
		delete(c.units, addr)
		return
	}
	u.state = unitPending
	u.worker = ""
	u.deadline = time.Time{}
	u.leasedAt = time.Time{}
	c.queue = append(c.queue, addr)
}

// Heartbeat renews the worker's liveness deadline and every lease it
// holds, and folds the reported replication delta into the aggregate.
func (c *Coordinator) Heartbeat(id string, hb HeartbeatRequest) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	c.expireLocked(now)
	w, ok := c.workers[id]
	if !ok {
		return ErrUnknownWorker
	}
	w.deadline = now.Add(c.ttl)
	for _, u := range c.units {
		if u.state == unitLeased && u.worker == id {
			u.deadline = now.Add(c.ttl)
		}
	}
	c.replications += hb.Replicated
	return nil
}

// Lease hands out up to max pending units (capped by the coordinator's
// batch limit), marking each leased to the worker until the deadline.
// Leasing renews the worker's own liveness like a heartbeat.
func (c *Coordinator) Lease(id string, max int) ([]WorkUnit, error) {
	if max <= 0 || max > c.maxBatch {
		max = c.maxBatch
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	c.expireLocked(now)
	w, ok := c.workers[id]
	if !ok {
		return nil, ErrUnknownWorker
	}
	w.deadline = now.Add(c.ttl)
	var out []WorkUnit
	i := 0
	for ; i < len(c.queue) && len(out) < max; i++ {
		addr := c.queue[i]
		u := c.units[addr]
		if u == nil || u.state != unitPending {
			continue // lazily dropped or already re-leased
		}
		u.state = unitLeased
		u.worker = id
		u.deadline = now.Add(c.ttl)
		u.leasedAt = now
		c.leases++
		out = append(out, WorkUnit{Address: addr, Job: u.job, Traceparent: u.traceparent})
	}
	c.queue = c.queue[i:]
	return out, nil
}

// Tick expires overdue leases and silent workers against the current
// time. gazeserve drives it on a ticker so recovery does not depend on
// another worker happening to poll.
func (c *Coordinator) Tick() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(c.now())
}

// expireLocked requeues units whose lease deadline passed and drops
// workers whose liveness deadline passed. A worker's expiry does not
// touch its units directly — their own deadlines were set from the same
// heartbeats and expire on their own.
func (c *Coordinator) expireLocked(now time.Time) {
	for addr, u := range c.units {
		if u.state == unitLeased && now.After(u.deadline) {
			c.requeueLocked(addr, u)
		}
	}
	for id, w := range c.workers {
		if now.After(w.deadline) {
			delete(c.workers, id)
		}
	}
}

// CompleteResult verifies and commits an uploaded result document.
// Verification (engine.ImportResult) is what makes this endpoint safe:
// the document's embedded key must hash to addr, so an upload can only
// ever supply the result for the work the address names. The result is
// adopted into the coordinator's memo and store either way; settling a
// live unit additionally wakes every sweep waiting on it. The returned
// bool is false for duplicates (already-settled or never-known units).
func (c *Coordinator) CompleteResult(addr string, doc []byte) (bool, error) {
	key, res, err := engine.ImportResult(addr, doc)
	if err != nil {
		return false, fmt.Errorf("%w: %v", ErrBadResult, err)
	}
	c.eng.Adopt(key, res)
	c.mu.Lock()
	u := c.units[addr]
	var waiters map[*batch][]int
	var label string
	if u != nil {
		c.settleLeaseLocked(u, "completed")
		waiters = u.waiters
		label = u.job.String()
		delete(c.units, addr)
		c.results++
	} else {
		c.duplicates++
	}
	c.mu.Unlock()
	// Waiter delivery happens outside c.mu: batch completion invokes the
	// jobs manager's progress callback, which takes the manager's lock.
	for b, idx := range waiters {
		b.complete(idx, res, false, label, addr)
	}
	return u != nil, nil
}

// CompleteTelemetry verifies and adopts an uploaded telemetry document.
// The same verification shape as CompleteResult protects it: the
// document's embedded key must hash to addr (engine.ImportTelemetry), so
// an upload can only attach a timeline to the work the address names.
// Telemetry is a sidecar of the result, not a unit outcome — it settles
// no lease and wakes no waiters, it just lands byte-identically in the
// coordinator's telemetry memo and store.
func (c *Coordinator) CompleteTelemetry(addr string, doc []byte) error {
	key, _, err := engine.ImportTelemetry(addr, doc)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadTelemetry, err)
	}
	c.eng.AdoptTelemetry(key, doc)
	return nil
}

// FailUnit settles a unit as failed on a worker's deterministic-error
// report, failing every sweep waiting on it. Reports for unknown or
// already-settled units are ignored (false): the unit may have been
// completed by another worker in the meantime, which supersedes the
// failure.
func (c *Coordinator) FailUnit(addr, workerID, msg string) bool {
	c.mu.Lock()
	u := c.units[addr]
	var waiters map[*batch][]int
	if u != nil {
		c.settleLeaseLocked(u, "failed")
		waiters = u.waiters
		delete(c.units, addr)
		c.failures++
	}
	c.mu.Unlock()
	if u == nil {
		return false
	}
	short := addr
	if len(short) > 12 {
		short = short[:12]
	}
	err := fmt.Errorf("cluster: unit %s failed on worker %s: %s", short, workerID, msg)
	for b := range waiters {
		b.fail(err)
	}
	return true
}

// Counters returns the monitoring snapshot.
func (c *Coordinator) Counters() Counters {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.countersLocked()
}

func (c *Coordinator) countersLocked() Counters {
	cts := Counters{
		Workers:          len(c.workers),
		Leases:           c.leases,
		Releases:         c.releases,
		Results:          c.results,
		DuplicateResults: c.duplicates,
		Failures:         c.failures,
		Replications:     c.replications,
	}
	for _, u := range c.units {
		if u.state == unitPending {
			cts.UnitsPending++
		} else {
			cts.UnitsLeased++
		}
	}
	return cts
}

// Info returns the GET /cluster document.
func (c *Coordinator) Info() Info {
	c.mu.Lock()
	defer c.mu.Unlock()
	info := Info{
		Scale:              c.eng.Scale(),
		StoreSchemaVersion: engine.StoreSchemaVersion,
		LeaseTTLMS:         c.ttl.Milliseconds(),
		Workers:            []WorkerStatus{},
		Counters:           c.countersLocked(),
	}
	leased := make(map[string]int)
	for _, u := range c.units {
		if u.state == unitLeased {
			leased[u.worker]++
		}
	}
	for _, w := range c.workers {
		info.Workers = append(info.Workers, WorkerStatus{
			ID: w.id, Name: w.name, Concurrency: w.concurrency, Leased: leased[w.id],
		})
	}
	return info
}

// Execute is the cluster-dispatch jobs.Executor: it resolves each job
// against the coordinator engine's memo/store first (cluster or not,
// completed work is never redone), enqueues the rest as lease units,
// and waits for workers to settle them. Results return in input order;
// ctx cancellation detaches the batch — pending units nobody else waits
// on are dropped, leased ones complete harmlessly into the store.
func (c *Coordinator) Execute(ctx context.Context, js []engine.Job, progress func(engine.Progress)) ([]sim.Result, error) {
	b := newBatch(len(js), progress, c.now)
	if len(js) == 0 {
		return b.results, ctx.Err()
	}
	scale := c.eng.Scale()
	type planned struct {
		job     engine.Job
		indices []int
	}
	var order []string
	pending := make(map[string]*planned)
	for i, j := range js {
		key := j.CanonicalJSON(scale)
		addr := engine.AddressOfKey(key)
		if res, ok := c.eng.Lookup(key); ok {
			b.complete([]int{i}, res, true, j.String(), addr)
			continue
		}
		p := pending[addr]
		if p == nil {
			p = &planned{job: j}
			pending[addr] = p
			order = append(order, addr)
		}
		p.indices = append(p.indices, i)
	}
	if len(order) > 0 {
		tp := obs.ContextTraceparent(ctx)
		c.mu.Lock()
		for _, addr := range order {
			p := pending[addr]
			u := c.units[addr]
			if u == nil {
				u = &unit{addr: addr, job: p.job, state: unitPending, traceparent: tp, waiters: make(map[*batch][]int)}
				c.units[addr] = u
				c.queue = append(c.queue, addr)
			} else if u.traceparent == "" {
				u.traceparent = tp
			}
			u.waiters[b] = append(u.waiters[b], p.indices...)
			b.addrs = append(b.addrs, addr)
		}
		c.mu.Unlock()
	}
	select {
	case <-b.doneCh:
		if b.err != nil {
			// A failed unit finishes the batch while sibling units are
			// still live; detach so they are not executed (or delivered)
			// for a sweep that already failed.
			c.detach(b)
		}
		return b.results, b.err
	case <-ctx.Done():
		c.detach(b)
		return b.results, ctx.Err()
	}
}

// detach removes a finished or cancelled batch from every unit it
// subscribed to, dropping pending units with no remaining waiters
// (leased ones run to completion — the result lands in the store, which
// is never wasted).
func (c *Coordinator) detach(b *batch) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, addr := range b.addrs {
		u := c.units[addr]
		if u == nil {
			continue
		}
		delete(u.waiters, b)
		if len(u.waiters) == 0 && u.state == unitPending {
			delete(c.units, addr) // queue entry is lazily skipped
		}
	}
}

// batch is one Execute call's result assembly: the output slice, the
// count of outstanding indices, and the progress reporter. Delivery
// happens under its own lock, never the coordinator's.
type batch struct {
	mu       sync.Mutex
	results  []sim.Result
	done     int
	computed int // non-cached completions, for the ETA estimate
	total    int
	start    time.Time
	nowFn    func() time.Time
	progress func(engine.Progress)
	err      error
	finished bool
	doneCh   chan struct{}
	// addrs lists the unit addresses this batch subscribed to, for
	// detach; written before waiting, read only after the batch leaves
	// the units table, so unsynchronized access is safe.
	addrs []string
}

func newBatch(n int, progress func(engine.Progress), now func() time.Time) *batch {
	return &batch{
		results:  make([]sim.Result, n),
		total:    n,
		start:    now(),
		nowFn:    now,
		progress: progress,
		doneCh:   make(chan struct{}),
	}
}

// complete fills the batch indices a settled unit maps to and reports
// progress; the last completion closes doneCh.
func (b *batch) complete(indices []int, res sim.Result, cached bool, label, addr string) {
	b.mu.Lock()
	if b.finished {
		b.mu.Unlock()
		return
	}
	for _, i := range indices {
		b.results[i] = res
	}
	b.done += len(indices)
	if !cached {
		b.computed++
	}
	last := b.done >= b.total
	if last {
		b.finished = true
	}
	if b.progress != nil {
		elapsed := b.nowFn().Sub(b.start)
		var remaining time.Duration
		if b.computed > 0 && b.done < b.total {
			remaining = time.Duration(float64(elapsed) / float64(b.computed) * float64(b.total-b.done))
			if remaining < 0 {
				remaining = 0
			}
		}
		b.progress(engine.Progress{
			Done: b.done, Total: b.total, Cached: cached,
			Job: label, Address: addr,
			Elapsed: elapsed, Remaining: remaining,
		})
	}
	b.mu.Unlock()
	if last {
		close(b.doneCh)
	}
}

// fail finishes the batch with an error. Partial results already
// delivered stay in place, mirroring RunAllContext's partial-result
// contract.
func (b *batch) fail(err error) {
	b.mu.Lock()
	if b.finished {
		b.mu.Unlock()
		return
	}
	b.finished = true
	b.err = err
	b.mu.Unlock()
	close(b.doneCh)
}
