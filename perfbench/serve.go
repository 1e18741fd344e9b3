package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/sim"
)

// stack is the gazeserve stack in process: engine with an on-disk store
// and telemetry, a journaled jobs manager and the HTTP server, behind a
// loopback listener.
type stack struct {
	store   *engine.Store
	eng     *engine.Engine
	mgr     *jobs.Manager
	metrics *obs.Metrics
	ts      *httptest.Server
	// tracer, in traced runs, keeps the jobs manager's own job.* spans:
	// the phase timings GET /jobs/{id} reports are whole milliseconds.
	tracer *obs.Tracer
}

// jobSpanRing holds every job and engine span of a traced run.
const jobSpanRing = 1 << 16

func newStack(dir string, sc engine.Scale, engineWorkers int, traced bool) (*stack, error) {
	store, err := engine.Open(filepath.Join(dir, "store"))
	if err != nil {
		return nil, err
	}
	metrics := obs.NewMetrics()
	var tracer *obs.Tracer
	if traced {
		tracer = obs.NewTracer(obs.TracerOptions{RingSize: jobSpanRing})
	}
	eng := engine.New(engine.Options{
		Scale: sc, Store: store, Workers: engineWorkers,
		Phases: metrics.EnginePhase, TelemetryInterval: sim.DefaultTelemetryInterval,
	})
	mgr, err := jobs.Open(jobs.Options{
		Engine: eng, Compile: server.Compiler(eng), Dir: filepath.Join(dir, "jobs"),
		Workers: 1, QueueWait: metrics.JobQueueWait, Tracer: tracer,
	})
	if err != nil {
		return nil, err
	}
	srv := server.New(eng).AttachJobs(mgr).SetMetrics(metrics)
	return &stack{store: store, eng: eng, mgr: mgr, metrics: metrics, ts: httptest.NewServer(srv.Handler()), tracer: tracer}, nil
}

func (s *stack) close() {
	s.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.mgr.Shutdown(ctx) //nolint:errcheck // the stack's directory is deleted next
}

// httpStats aggregates what the benchmark's HTTP clients saw.
type httpStats struct {
	mu                       sync.Mutex
	routes                   map[string][]float64 // latency ms by route label
	conditional, notModified int64
	respBytes, responses     int64
}

func newHTTPStats() *httpStats { return &httpStats{routes: make(map[string][]float64)} }

// client is one closed-loop HTTP client holding a single connection.
type client struct {
	base string
	hc   *http.Client
	st   *httpStats
}

func newClient(s *stack, st *httpStats) *client {
	return &client{
		base: s.ts.URL,
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}},
		st: st,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole response; route labels the
// request in the statistics and its span.
func (c *client) do(parent *open, route, method, path string, body []byte, inm string) (int, http.Header, []byte, error) {
	sp := parent.child("server." + route)
	defer sp.end()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	el := time.Since(start)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	if route == "metrics" {
		return resp.StatusCode, resp.Header, data, nil // a scrape is not client traffic
	}
	c.st.mu.Lock()
	c.st.routes[route] = append(c.st.routes[route], ms(el))
	c.st.responses++
	c.st.respBytes += int64(len(data))
	if inm != "" {
		c.st.conditional++
		if resp.StatusCode == http.StatusNotModified {
			c.st.notModified++
		}
	}
	c.st.mu.Unlock()
	return resp.StatusCode, resp.Header, data, nil
}

// submitJob posts a job, waits for it on its event stream and fetches
// its result document. It returns the job's status at submission (for
// the coalesced flag) and the result body.
func (c *client) submitJob(parent *open, typ string, request any) (server.JobStatus, []byte, error) {
	reqBody, err := json.Marshal(request)
	if err != nil {
		return server.JobStatus{}, nil, err
	}
	body, _ := json.Marshal(server.JobSubmitRequest{Type: typ, Request: reqBody})
	status, _, data, err := c.do(parent, "post_jobs", http.MethodPost, "/jobs", body, "")
	if err != nil {
		return server.JobStatus{}, nil, err
	}
	if status != http.StatusAccepted {
		return server.JobStatus{}, nil, fmt.Errorf("POST /jobs: status %d: %s", status, data)
	}
	var st server.JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return st, nil, fmt.Errorf("POST /jobs: %w", err)
	}
	state := st.State
	if state != string(jobs.Succeeded) {
		status, _, data, err := c.do(parent, "job_events", http.MethodGet, "/jobs/"+st.ID+"/events", nil, "")
		if err != nil {
			return st, nil, err
		}
		if status != http.StatusOK {
			return st, nil, fmt.Errorf("GET /jobs/%s/events: status %d", st.ID, status)
		}
		sc := bufio.NewScanner(bytes.NewReader(data))
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			var ev server.JobStatus
			if json.Unmarshal(sc.Bytes(), &ev) == nil {
				state = ev.State
			}
		}
	}
	if state != string(jobs.Succeeded) {
		return st, nil, fmt.Errorf("job %s ended %s", st.ID, state)
	}
	status, _, data, err = c.do(parent, "job_result", http.MethodGet, "/jobs/"+st.ID+"/result", nil, "")
	if err != nil {
		return st, nil, err
	}
	if status != http.StatusOK {
		return st, nil, fmt.Errorf("GET /jobs/%s/result: status %d", st.ID, status)
	}
	return st, data, nil
}

// scrapeAnalyticsCache returns the server's analytics cache hit and miss
// counters from GET /metrics.
func (c *client) scrapeAnalyticsCache() (hits, misses float64, err error) {
	status, _, data, err := c.do(nil, "metrics", http.MethodGet, "/metrics", nil, "")
	if err != nil {
		return 0, 0, err
	}
	if status != http.StatusOK {
		return 0, 0, fmt.Errorf("GET /metrics: status %d", status)
	}
	doc, err := obs.LintProm(string(data))
	if err != nil {
		return 0, 0, fmt.Errorf("GET /metrics: %w", err)
	}
	return doc.Samples["gaze_analytics_cache_hits_total"], doc.Samples["gaze_analytics_cache_misses_total"], nil
}

// shared is the state the writer publishes for the reader.
type shared struct {
	mu     sync.Mutex
	addrs  []string // content addresses with a timeline
	jobIDs []string // succeeded jobs
}

func (s *shared) add(addrs []string, jobID string) {
	s.mu.Lock()
	s.addrs = append(s.addrs, addrs...)
	s.jobIDs = append(s.jobIDs, jobID)
	s.mu.Unlock()
}

func (s *shared) pick(rng *rand.Rand) (addr, jobID string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.addrs[rng.IntN(len(s.addrs))], s.jobIDs[rng.IntN(len(s.jobIDs))]
}

// reader is the closed-loop read client: it cycles the analytics matrix
// and speedup documents, result timelines as JSON and CSV, and job
// status, sending If-None-Match with the last ETag on every other pass.
type reader struct {
	c     *client
	rng   *rand.Rand
	query string // analytics grid query
	sh    *shared
	etags map[string]string
	n     int

	// timelines maps an address to the digest of its served JSON
	// timeline; jobTimes collects terminal jobs' status documents.
	timelines map[string]string
	jobTimes  []server.JobStatus
}

func newReader(c *client, rng *rand.Rand, query string, sh *shared) *reader {
	return &reader{c: c, rng: rng, query: query, sh: sh, etags: make(map[string]string), timelines: make(map[string]string)}
}

// step makes one read request and reports whether it completed as
// expected and its latency.
func (r *reader) step(parent *open) (time.Duration, error) {
	op, conditional := r.n%5, (r.n/5)%2 == 1
	r.n++
	addr, jobID := r.sh.pick(r.rng)
	var route, path string
	switch op {
	case 0:
		route, path = "analytics_matrix", "/analytics/matrix?"+r.query
	case 1:
		route, path = "analytics_speedup", "/analytics/speedup?"+r.query
	case 2:
		route, path = "timeline_json", "/results/"+addr+"/timeline"
	case 3:
		route, path = "timeline_csv", "/results/"+addr+"/timeline?format=csv"
	default:
		route, path = "job_status", "/jobs/"+jobID
	}
	inm := ""
	if conditional {
		inm = r.etags[path]
	}
	start := time.Now()
	status, hdr, data, err := r.c.do(parent, route, http.MethodGet, path, nil, inm)
	el := time.Since(start)
	switch {
	case err != nil:
		return el, err
	case status == http.StatusNotModified && inm != "":
		return el, nil
	case status != http.StatusOK:
		return el, fmt.Errorf("GET %s: status %d", path, status)
	}
	if tag := hdr.Get("ETag"); tag != "" {
		r.etags[path] = tag
	}
	switch op {
	case 2:
		d := digest(data)
		if prev, ok := r.timelines[addr]; ok && prev != d {
			return el, fmt.Errorf("timeline %s changed between reads", addr[:12])
		}
		r.timelines[addr] = d
	case 4:
		var st server.JobStatus
		if err := json.Unmarshal(data, &st); err != nil {
			return el, fmt.Errorf("GET %s: %w", path, err)
		}
		if st.Timings != nil && st.Started != nil {
			r.jobTimes = append(r.jobTimes, st)
		}
	}
	return el, nil
}

// checkTimelines verifies every timeline the reader was served against
// the store's .timeline sidecar.
func (r *reader) checkTimelines(st *engine.Store) error {
	for addr, d := range r.timelines {
		doc, ok := st.GetTelemetry(addr)
		if !ok {
			return fmt.Errorf("served timeline %s has no sidecar in the store", addr[:12])
		}
		if digest(doc) != d {
			return fmt.Errorf("served timeline %s differs from its store sidecar", addr[:12])
		}
	}
	return nil
}

// checkStore verifies every result document in a store against the
// golden digests and returns how many had none to check.
func checkStore(g golden, st *engine.Store) (unchecked int64, err error) {
	for _, e := range st.Entries() {
		data, err := os.ReadFile(resultPath(st, e.Address))
		if err != nil {
			return unchecked, err
		}
		checked, err := g.check(e.Address, data)
		if err != nil {
			return unchecked, err
		}
		if !checked {
			unchecked++
		}
	}
	return unchecked, nil
}

// storeResult reads and decodes one result record from a store.
func storeResult(st *engine.Store, addr string) (sim.Result, error) {
	data, err := os.ReadFile(resultPath(st, addr))
	if err != nil {
		return sim.Result{}, fmt.Errorf("result %s: %w", addr[:12], err)
	}
	_, res, err := engine.ImportResult(addr, data)
	return res, err
}

// servingLayers writes the server.* and jobs.* per-layer metrics. The
// jobs figures are medians over jobs: queue wait from the created and
// started times of GET /jobs/{id}, execute and finalize from the jobs
// manager's job.* spans.
func servingLayers(st *httpStats, r *reader, tracer *obs.Tracer, submits, coalesced int, hits0, misses0, hits1, misses1 float64, m map[string]float64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, route := range serverRoutes {
		m["server."+route+"_ms"] = median(st.routes[route])
	}
	if st.conditional > 0 {
		m["server.not_modified_ratio"] = float64(st.notModified) / float64(st.conditional)
	}
	if n := (hits1 - hits0) + (misses1 - misses0); n > 0 {
		m["server.analytics_cache_hit_ratio"] = (hits1 - hits0) / n
	}
	if st.responses > 0 {
		m["server.response_kb"] = float64(st.respBytes) / float64(st.responses) / 1024
	}
	var qw []float64
	for _, js := range r.jobTimes {
		qw = append(qw, ms(js.Started.Sub(js.Created)))
	}
	m["jobs.queue_wait_ms"] = median(qw)
	phase := map[string][]float64{}
	for _, sp := range tracer.Recent(0) {
		phase[sp.Name] = append(phase[sp.Name], ms(sp.Duration))
	}
	m["jobs.execute_ms"] = median(phase["job.execute"])
	m["jobs.finalize_ms"] = median(phase["job.finalize"])
	if submits > 0 {
		m["jobs.coalesced_ratio"] = float64(coalesced) / float64(submits)
	}
}

// servingProbe runs the serving layers over a workload's own grid, for
// the per-layer metrics of workloads whose timed phase does not use
// them: a fresh stack simulates the grid as one sweep job, the same
// sweep is submitted again (and coalesces), and a reader makes 100 reads.
func servingProbe(e *env, sc engine.Scale, traces, pfs []string, m map[string]float64) error {
	st, err := newStack(filepath.Join(e.dir, "probe-stack"), sc, e.workers, true)
	if err != nil {
		return err
	}
	defer st.close()
	stats := newHTTPStats()
	c := newClient(st, stats)
	defer c.close()
	root := e.rec.root("bench.serving_probe", true)
	defer root.end()
	hits0, misses0, err := c.scrapeAnalyticsCache()
	if err != nil {
		return err
	}
	req := server.SweepRequest{Traces: traces, Prefetchers: pfs}
	coalesced := 0
	var jobID string
	for i := 0; i < 2; i++ {
		js, _, err := c.submitJob(root, "sweep", req)
		if err != nil {
			return fmt.Errorf("serving probe: %w", err)
		}
		jobID = js.ID
		if js.Coalesced {
			coalesced++
		}
	}
	sh := &shared{}
	for _, en := range st.store.Entries() {
		sh.addrs = append(sh.addrs, en.Address)
	}
	sh.jobIDs = []string{jobID}
	q := "traces=" + strings.Join(traces, ",") + "&prefetchers=" + strings.Join(pfs, ",")
	r := newReader(c, newRand(e.seed, 7), q, sh)
	for i := 0; i < 100; i++ {
		if _, err := r.step(root); err != nil {
			return fmt.Errorf("serving probe: %w", err)
		}
	}
	hits1, misses1, err := c.scrapeAnalyticsCache()
	if err != nil {
		return err
	}
	if _, err := checkStore(e.golden, st.store); err != nil {
		return fmt.Errorf("serving probe: %w", err)
	}
	if err := r.checkTimelines(st.store); err != nil {
		return fmt.Errorf("serving probe: %w", err)
	}
	servingLayers(stats, r, st.tracer, 2, coalesced, hits0, misses0, hits1, misses1, m)
	return nil
}
