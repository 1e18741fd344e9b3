package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/prefetchers"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/workload"
)

const (
	// serveRepeatShare is the share of the writer's submissions that
	// repeat an earlier one and coalesce onto its job. It is an assumed
	// mix, not one measured from callers: nothing in the repository
	// records how often clients resubmit.
	serveRepeatShare = 0.25
	// serveAnalyticsTraces is how many traces the reader's analytics grid
	// spans: 102 traces x (9 prefetchers + baseline) = 1020 jobs.
	serveAnalyticsTraces = 102
)

// serveDRAMMTPS is the second DRAM transfer rate (Fig 16a's axis) the
// writer's new cells run at, besides the default: it doubles the new
// cells a run can draw without growing the trace set.
const serveDRAMMTPS = 1600

// cellSpec is one simulate request: a trace, a prefetcher and a DRAM
// transfer rate (0 = the default).
type cellSpec struct {
	trace, pf string
	dramMTPS  int
}

func (c cellSpec) job() engine.Job {
	return engine.Job{Traces: []string{c.trace}, L1: []string{c.pf}, Overrides: engine.Overrides{DRAMMTPS: c.dramMTPS}}
}

func (c cellSpec) request() server.SimulateRequest {
	req := server.SimulateRequest{Trace: c.trace, Prefetcher: c.pf}
	if c.dramMTPS != 0 {
		req.Overrides = &engine.Overrides{DRAMMTPS: c.dramMTPS}
	}
	return req
}

// writer is the closed-loop submitting client.
type writer struct {
	c       *client
	sh      *shared
	fresh   []cellSpec // new cells in seeded order
	next    int
	history []cellSpec
	rng     *rand.Rand

	submits, coalesced int
	served             []servedCell
}

type servedCell struct {
	spec cellSpec
	resp server.SimulateResponse
}

// step submits one simulate job and waits for its result. It returns
// whether the cell was new, and how many requests it made.
func (w *writer) step(parent *open, repeat bool) (isNew bool, requests int, err error) {
	var spec cellSpec
	if repeat || w.next >= len(w.fresh) {
		spec = w.history[w.rng.IntN(len(w.history))]
		repeat = true
	} else {
		spec = w.fresh[w.next]
		w.next++
	}
	before := w.c.count()
	js, data, err := w.c.submitJob(parent, "simulate", spec.request())
	requests = w.c.count() - before
	if err != nil {
		return false, requests, err
	}
	var resp server.SimulateResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return false, requests, fmt.Errorf("simulate result: %w", err)
	}
	w.submits++
	if js.Coalesced {
		w.coalesced++
	}
	w.served = append(w.served, servedCell{spec, resp})
	if !repeat {
		w.history = append(w.history, spec)
		w.sh.add([]string{resp.Address, spec.job().Baseline().ContentAddress(engine.Quick)}, js.ID)
	}
	return !repeat, requests, nil
}

// check verifies every served result against the store: the response
// must equal the one the server derives from the stored result and its
// stored baseline, field for field.
func (w *writer) check(st *engine.Store) error {
	for _, sc := range w.served {
		job := sc.spec.job()
		addr := job.ContentAddress(engine.Quick)
		res, err := storeResult(st, addr)
		if err != nil {
			return err
		}
		base, err := storeResult(st, job.Baseline().ContentAddress(engine.Quick))
		if err != nil {
			return err
		}
		want := server.SimulateResponse{
			Traces: job.Traces, Prefetcher: sc.spec.pf, Cores: 1, Address: addr,
			Overrides: sc.spec.request().Overrides,
			IPC:       res.MeanIPC(), Speedup: engine.Speedup(res, base),
			Accuracy: res.Accuracy(), Coverage: res.Coverage(), LateFraction: res.LateFraction(),
			IssuedPrefetches: res.IssuedPrefetches(), L1MPKI: res.L1MPKI(), LLCMPKI: res.LLCMPKI(),
		}
		if !reflect.DeepEqual(sc.resp, want) {
			return fmt.Errorf("served result for %s/%s differs from the store", sc.spec.trace, sc.spec.pf)
		}
	}
	return nil
}

// count returns how many requests the client's statistics hold.
func (c *client) count() int {
	c.st.mu.Lock()
	defer c.st.mu.Unlock()
	return int(c.st.responses)
}

// serveMixed drives the gazeserve stack with one writer and one reader.
func serveMixed(e *env) (*outcome, error) {
	sc := engine.Quick
	core := coreTraces()
	rng := newRand(e.seed, 1)
	// The writer's new cells come from every non-core trace, more than a
	// run simulates, so it does not run out of them. They leave out
	// `none`: every new cell brings its baseline, so a later `none`
	// submission would be a store hit, not a new cell.
	var writeSet []string
	for _, s := range workload.Suites() {
		writeSet = append(writeSet, nonCore(s)...)
	}
	rng.Shuffle(len(writeSet), func(i, j int) { writeSet[i], writeSet[j] = writeSet[j], writeSet[i] })
	var fresh []cellSpec
	for _, t := range writeSet {
		for _, p := range prefetchers.EvaluatedNames() {
			fresh = append(fresh, cellSpec{t, p, 0}, cellSpec{t, p, serveDRAMMTPS})
		}
	}
	rng.Shuffle(len(fresh), func(i, j int) { fresh[i], fresh[j] = fresh[j], fresh[i] })

	out := &outcome{layer: make(map[string]float64)}
	var (
		st        *stack
		prepopJob string
		matMs     []float64
	)
	defer func() {
		if st != nil {
			st.close()
		}
	}()
	for i := 0; i < setupReps; i++ {
		if st != nil {
			st.close()
		}
		workload.ResetTraceCache()
		runtime.GC() // every set-up starts from a clean heap and disk
		flushDisk()
		start := time.Now()
		root := e.rec.root("bench.setup", e.traced)
		var err error
		st, err = newStack(filepath.Join(e.dir, fmt.Sprintf("setup-%d", i)), sc, max(1, e.workers-1), e.traced)
		if err != nil {
			return nil, err
		}
		c := newClient(st, newHTTPStats())
		js, _, err := c.submitJob(root, "sweep", server.SweepRequest{Traces: core, Prefetchers: prefetchers.EvaluatedNames()})
		c.close()
		if err != nil {
			return nil, fmt.Errorf("pre-populating: %w", err)
		}
		prepopJob = js.ID
		for _, t := range writeSet {
			t0 := time.Now()
			sp := root.child("workload.materialize")
			_, err := workload.MaterializeRecords(t, sc.TraceLen)
			sp.end()
			if err != nil {
				return nil, err
			}
			matMs = append(matMs, ms(time.Since(t0)))
		}
		root.end()
		out.setups = append(out.setups, time.Since(start).Seconds())
	}

	sh := &shared{jobIDs: []string{prepopJob}}
	for _, en := range st.store.Entries() {
		sh.addrs = append(sh.addrs, en.Address)
	}
	hs := newHTTPStats()
	wc, rc := newClient(st, hs), newClient(st, hs)
	defer wc.close()
	defer rc.close()
	hits0, misses0, err := rc.scrapeAnalyticsCache()
	if err != nil {
		return nil, err
	}
	// The analytics grid is the core traces plus the first write traces
	// in seeded order, as many as the server's grid limit of 1024 jobs
	// admits: about half of the writer's new cells land in it and
	// invalidate the cached analytics documents.
	gridTraces := append(append([]string(nil), core...), writeSet[:serveAnalyticsTraces-len(core)]...)
	q := "traces=" + strings.Join(gridTraces, ",") +
		"&prefetchers=" + strings.Join(prefetchers.EvaluatedNames(), ",")
	r := newReader(rc, newRand(e.seed, 2), q, sh)
	w := &writer{c: wc, sh: sh, fresh: fresh, rng: newRand(e.seed, 3)}

	var (
		mu        sync.Mutex
		requests  atomic.Int64 // completed client requests
		stop      atomic.Bool
		wg        sync.WaitGroup
		failed    atomic.Int64
		attempted atomic.Int64
		firstErr  error
	)
	fail := func(err error) {
		failed.Add(1)
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	flushDisk()
	sim0 := st.eng.Counters().Simulated
	tc0 := workload.TraceCacheStats()
	rt := startRuntimeStats()
	start := time.Now()
	// In a traced run, operations that start in an odd second are traced.
	tracedNow := func() bool {
		return e.traced && int(time.Since(start)/time.Second)%2 == 1
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			root := e.rec.root("bench.write", tracedNow())
			t0 := time.Now()
			isNew, n, err := w.step(root, len(w.history) > 0 && w.rng.Float64() < serveRepeatShare)
			lat := time.Since(t0)
			root.end()
			attempted.Add(1)
			requests.Add(int64(n))
			mu.Lock()
			if err == nil && isNew {
				out.submits = append(out.submits, ms(lat))
			}
			mu.Unlock()
			if err != nil {
				fail(err)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for !stop.Load() {
			root := e.rec.root("bench.read", tracedNow())
			lat, err := r.step(root)
			root.end()
			attempted.Add(1)
			requests.Add(1)
			mu.Lock()
			if err == nil {
				out.reads = append(out.reads, ms(lat))
			}
			mu.Unlock()
			if err != nil {
				fail(err)
			}
		}
	}()
	// marks[k] is read by the first poll after second k of the timed
	// phase (within 5 ms): its time, the engine's simulated-job count and
	// the completed requests. Window k runs from marks[k] to marks[k+1].
	type mark struct {
		at       time.Time
		sim      uint64
		requests int64
	}
	marks := []mark{{start, sim0, 0}}
	lastSample := start
	for {
		time.Sleep(5 * time.Millisecond)
		now := time.Now()
		el := now.Sub(start)
		if int(el/time.Second) >= len(marks) {
			marks = append(marks, mark{now, st.eng.Counters().Simulated, requests.Load()})
		}
		if now.Sub(lastSample) >= 500*time.Millisecond {
			rt.sample()
			lastSample = now
		}
		mu.Lock()
		enough := len(out.submits) >= minSubmits && len(out.reads) >= minReads
		mu.Unlock()
		if e.traced {
			enough = len(marks) > 2 // one untraced and one traced window
		}
		if (el >= e.seconds && enough) || el >= 3*e.seconds {
			break
		}
	}
	stop.Store(true)
	wg.Wait()
	out.attempted, out.failed = attempted.Load(), failed.Load()
	// Every complete window is a round; the one running at the stop is
	// partial and left out.
	var traced, untraced []float64
	for k := 0; k+1 < len(marks); k++ {
		secs := marks[k+1].at.Sub(marks[k].at).Seconds()
		n := marks[k+1].requests - marks[k].requests
		if n == 0 {
			continue
		}
		if e.traced && k%2 == 1 {
			traced = append(traced, secs/float64(n)) // seconds per request
			continue
		}
		untraced = append(untraced, secs/float64(n))
		instr := float64(marks[k+1].sim-marks[k].sim) * instructions(sc)
		out.rounds = append(out.rounds, round{secs, instr, float64(n)})
	}
	if firstErr != nil {
		return out, fmt.Errorf("serve-mixed: %d of %d operations failed, first: %w", out.failed, out.attempted, firstErr)
	}

	// Output checks: served results and timelines against the store, and
	// every stored result against the golden digests.
	if err := w.check(st.store); err != nil {
		return out, err
	}
	if err := r.checkTimelines(st.store); err != nil {
		return out, err
	}
	unchecked, err := checkStore(e.golden, st.store)
	if err != nil {
		return out, err
	}
	out.unchecked += unchecked
	out.ref = make(refSet)
	for _, t := range core {
		for _, p := range prefetcherNames() {
			j := engine.Job{Traces: []string{t}, L1: []string{p}}
			res, err := storeResult(st.store, j.ContentAddress(sc))
			if err != nil {
				return out, err
			}
			out.ref.add(t, p, res)
		}
	}
	if !e.traced {
		return out, nil
	}

	m := out.layer
	tot := &engineTotals{phases: st.metrics.EnginePhase}
	tot.add(st.eng)
	if err := tot.into(m); err != nil {
		return out, err
	}
	hits1, misses1, err := rc.scrapeAnalyticsCache()
	if err != nil {
		return out, err
	}
	servingLayers(hs, r, st.tracer, w.submits, w.coalesced, hits0, misses0, hits1, misses1, m)
	m["workload.materialize_ms"] = stats.Mean(matMs)
	tc := workload.TraceCacheStats()
	m["workload.trace_cache_hit_ratio"] = cacheHitRatio(tc0, tc)
	rt.into(m)
	if err := layerProbes(e, sc, core[0], m); err != nil {
		return out, err
	}
	return out, spanMetrics(e.rec, traced, untraced, m)
}
