// Package server exposes the experiment engine over HTTP — the gazeserve
// service. POST /simulate runs one job (plus its no-prefetch baseline) and
// returns the paper's §IV-A3 metrics; POST /sweep batches a whole
// trace × prefetcher grid through one parallel engine sweep. All
// handlers share a single engine, so concurrent and repeated requests
// coalesce onto the same memoized (and optionally disk-persisted)
// simulations.
package server

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/prefetchers"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/traceset"
	"repro/internal/workload"
)

// Server serves the gazeserve HTTP API over one shared engine.
type Server struct {
	eng    *engine.Engine
	jobs   *jobs.Manager
	traces *traceset.Registry

	// cluster is the coordinator behind the /cluster worker API (nil =
	// routes answer 503).
	cluster *cluster.Coordinator

	// inflight tracks ingested traces referenced by running synchronous
	// requests, for DELETE /traces in-use protection.
	inflight traceUse

	// analytics caches each analytics URL's compiled grid and assembled
	// comparison matrix, behind the /analytics ETags.
	analytics analyticsCache

	// admit rate-limits expensive compile paths per client (nil = no
	// admission control).
	admit *admission

	// gcAge is the default age floor for POST /admin/gc and periodic GC
	// (zero = only explicitly-aged requests collect).
	gcAge time.Duration

	// tracer records request spans and serves GET /debug/traces (nil =
	// tracing disabled; the route answers 503).
	tracer *obs.Tracer

	// metrics holds the latency-histogram bundle every request and
	// engine phase observes into. Always non-nil (New creates a default
	// bundle); share one bundle with the engine, jobs manager and
	// coordinator via SetMetrics so /metrics renders all families.
	metrics *obs.Metrics

	// reqLog, when set, logs one line per completed request with the
	// trace ID injected from the request's span context.
	reqLog *slog.Logger
}

// New builds a server on the given engine.
func New(e *engine.Engine) *Server { return &Server{eng: e, metrics: obs.NewMetrics()} }

// AttachTracer enables span collection: every request gets a root span
// (joining an inbound traceparent when present), and GET /debug/traces
// serves the tracer's ring buffer. Without it the route answers 503 and
// request handling takes the zero-cost no-span path.
func (s *Server) AttachTracer(t *obs.Tracer) *Server {
	s.tracer = t
	return s
}

// SetMetrics replaces the server's histogram bundle — pass the same
// bundle wired into the engine (Options.Phases), jobs manager
// (Options.QueueWait) and coordinator (Options.LeaseHold) so one
// /metrics scrape renders every family.
func (s *Server) SetMetrics(m *obs.Metrics) *Server {
	if m != nil {
		s.metrics = m
	}
	return s
}

// SetRequestLogger enables one structured log line per completed
// request. The handler logs with the request's span context, so lines
// carry trace_id when tracing is enabled.
func (s *Server) SetRequestLogger(l *slog.Logger) *Server {
	if l != nil {
		s.reqLog = slog.New(obs.ContextHandler(l.Handler()))
	}
	return s
}

// SetAdmission enables per-client token-bucket admission control on the
// expensive compile paths (POST /simulate, /sweep and /jobs): each client
// may start at most rps requests per second sustained, with bursts up to
// burst. Over-limit requests answer 429 with a Retry-After header. Cheap
// read paths (/stats, /metrics, /analytics, GETs) are never limited —
// they are exactly the endpoints monitoring and CDNs hammer.
func (s *Server) SetAdmission(rps float64, burst int) *Server {
	s.admit = newAdmission(rps, burst)
	return s
}

// SetGCAge sets the default age floor for result-store GC: POST /admin/gc
// without an explicit max_age, and the periodic collector in gazeserve,
// keep entries younger than age.
func (s *Server) SetGCAge(age time.Duration) *Server {
	s.gcAge = age
	return s
}

// AttachJobs enables the asynchronous jobs API on this server. The
// manager should be built with Compiler(e) for the same engine so
// background jobs share the synchronous handlers' validation, caps and
// memo. Without a manager the /jobs routes answer 503.
func (s *Server) AttachJobs(m *jobs.Manager) *Server {
	s.jobs = m
	return s
}

// Handler returns the HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET "+cluster.PathInfo, s.handleClusterInfo)
	mux.HandleFunc("POST "+cluster.PathWorkers, s.handleClusterRegister)
	mux.HandleFunc("DELETE "+cluster.PathWorkers+"/{id}", s.handleClusterDeregister)
	mux.HandleFunc("POST "+cluster.PathWorkers+"/{id}/heartbeat", s.handleClusterHeartbeat)
	mux.HandleFunc("POST "+cluster.PathLease, s.handleClusterLease)
	mux.HandleFunc("PUT "+cluster.PathResults+"{addr}", s.handleClusterResult)
	mux.HandleFunc("PUT "+cluster.PathTelemetry+"{addr}", s.handleClusterTelemetry)
	mux.HandleFunc("POST "+cluster.PathFailures+"{addr}", s.handleClusterFail)
	mux.HandleFunc("GET /traces", s.handleTraces)
	mux.HandleFunc("POST /traces", s.handleTraceUpload)
	mux.HandleFunc("GET /traces/{addr}", s.handleTraceManifest)
	mux.HandleFunc("GET /traces/{addr}/data", s.handleTraceData)
	mux.HandleFunc("DELETE /traces/{addr}", s.handleTraceDelete)
	mux.HandleFunc("GET /prefetchers", s.handlePrefetchers)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /results/{addr}/timeline", s.handleResultTimeline)
	mux.HandleFunc("GET /analytics/matrix", s.handleAnalyticsMatrix)
	mux.HandleFunc("GET /analytics/speedup", s.handleAnalyticsSpeedup)
	mux.HandleFunc("GET /analytics/timeline", s.handleAnalyticsTimeline)
	mux.HandleFunc("POST /admin/gc", s.handleAdminGC)
	mux.HandleFunc("POST /simulate", s.admitted(s.handleSimulate))
	mux.HandleFunc("POST /sweep", s.admitted(s.handleSweep))
	mux.HandleFunc("POST /jobs", s.admitted(s.handleJobSubmit))
	mux.HandleFunc("GET /jobs", s.handleJobList)
	mux.HandleFunc("GET /jobs/{id}", s.handleJobGet)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleJobResult)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("GET /debug/traces", s.handleDebugTraces)
	return s.instrument(mux)
}

// SimulateRequest selects one simulation. Either Trace (replicated on
// Cores cores) or Traces (one per core) must be set. Overrides, when
// present, perturbs the default Table II system configuration; out-of-
// range knobs are rejected with a 400.
type SimulateRequest struct {
	Trace      string            `json:"trace,omitempty"`
	Traces     []string          `json:"traces,omitempty"`
	Prefetcher string            `json:"prefetcher"`
	L2         string            `json:"l2,omitempty"`
	Cores      int               `json:"cores,omitempty"`
	Overrides  *engine.Overrides `json:"overrides,omitempty"`
}

// SimulateResponse carries the metrics the paper's tables report.
// Address is the underlying engine job's content address — the identity
// the memo and persisted store file the result under — so clients can
// correlate synchronous rows, background-job rows and store entries.
type SimulateResponse struct {
	Traces           []string          `json:"traces"`
	Prefetcher       string            `json:"prefetcher"`
	L2               string            `json:"l2,omitempty"`
	Cores            int               `json:"cores"`
	Overrides        *engine.Overrides `json:"overrides,omitempty"`
	Address          string            `json:"address,omitempty"`
	IPC              float64           `json:"ipc"`
	Speedup          float64           `json:"speedup"`
	Accuracy         float64           `json:"accuracy"`
	Coverage         float64           `json:"coverage"`
	LateFraction     float64           `json:"late_fraction"`
	IssuedPrefetches uint64            `json:"issued_prefetches"`
	L1MPKI           float64           `json:"l1_mpki"`
	LLCMPKI          float64           `json:"llc_mpki"`
}

// SweepRequest describes a trace × prefetcher grid. Traces are given
// explicitly or drawn from a suite ("spec06", "spec17", "ligra",
// "parsec", "cloud", ...); each pair runs single-core. Overrides, when
// present, applies to every job of the sweep; Axis additionally walks one
// configuration knob over a value list — a Fig 16-style sensitivity curve
// ({"param": "dram_mtps", "values": [800, 1600, 3200]}) in one request.
type SweepRequest struct {
	Suite       string            `json:"suite,omitempty"`
	Traces      []string          `json:"traces,omitempty"`
	Prefetchers []string          `json:"prefetchers"`
	Overrides   *engine.Overrides `json:"overrides,omitempty"`
	Axis        *SweepAxis        `json:"axis,omitempty"`
}

// SweepAxis names one Overrides knob (its JSON field name: "dram_mtps",
// "llc_mb_per_core", "l2_kb", "pq_capacity", "pq_drain_rate") and the
// values to sweep it over. Unknown params, fractional values for integer
// knobs, and out-of-range values are rejected with a 400.
type SweepAxis struct {
	Param  string    `json:"param"`
	Values []float64 `json:"values"`
}

// SweepResponse returns one row per (trace, prefetcher[, axis value])
// combination plus aggregates: without an Axis, GeomeanSpeedup maps each
// prefetcher to its geometric-mean speedup over the swept traces (the
// number the paper's Fig 6 bars plot); with an Axis, Sensitivity holds
// one point per (value, prefetcher) — the curves of Fig 16.
type SweepResponse struct {
	Rows           []SimulateResponse `json:"rows"`
	GeomeanSpeedup map[string]float64 `json:"geomean_speedup,omitempty"`
	Sensitivity    []SensitivityPoint `json:"sensitivity,omitempty"`
}

// SensitivityPoint is one point of a sensitivity curve: the swept knob at
// one value, one prefetcher, and the geometric-mean speedup over the
// swept traces.
type SensitivityPoint struct {
	Param          string  `json:"param"`
	Value          float64 `json:"value"`
	Prefetcher     string  `json:"prefetcher"`
	GeomeanSpeedup float64 `json:"geomean_speedup"`
}

// StatsResponse is the service's one metrics snapshot: /stats serves it
// as JSON and /metrics renders its numeric fields through metricRows, so
// the two cannot disagree; a null block exports no series. StoreEntries
// is null when no persisted store is configured and 0 when it is empty —
// distinguishable states for monitoring clients. The trace_cache_*
// fields describe the process-wide materialized-trace cache: how many
// immutable record slabs are resident, how often jobs were served one
// versus generating it, and the slabs' memory footprint. Jobs summarizes
// the background-jobs subsystem (null when no jobs manager is attached,
// mirroring store_entries): current per-state counts plus the number of
// queued jobs recovered from the journal at startup.
// IngestedTraces mirrors StoreEntries' null-vs-0 discipline for the trace
// registry: null when none is attached, the entry count otherwise.
// StatsSchemaVersion stamps the document's field set: /stats aggregates
// counters from several subsystems, and monitoring clients need one
// number — pinned by a golden test — that changes whenever a field is
// added, renamed or re-typed, instead of divining the shape from probes.
// StoreGC reports cumulative result-store garbage collection (null
// without a persisted store, like store_entries).
type StatsResponse struct {
	StatsSchemaVersion  int              `json:"stats_schema_version"`
	Scale               engine.Scale     `json:"scale"`
	Counters            engine.Counters  `json:"counters"`
	StoreDir            string           `json:"store_dir,omitempty"`
	StoreEntries        *int             `json:"store_entries"`
	StoreSchemaVersion  int              `json:"store_schema_version"`
	TraceCacheEntries   int              `json:"trace_cache_entries"`
	TraceCacheHits      uint64           `json:"trace_cache_hits"`
	TraceCacheMisses    uint64           `json:"trace_cache_misses"`
	TraceCacheBytes     int64            `json:"trace_cache_bytes"`
	TraceCacheMapped    int64            `json:"trace_cache_mapped_bytes"`
	TraceCacheEvictions uint64           `json:"trace_cache_evictions"`
	TraceRegistryDir    string           `json:"trace_registry_dir,omitempty"`
	IngestedTraces      *int             `json:"ingested_traces"`
	Jobs                *jobs.Counters   `json:"jobs"`
	StoreGC             *engine.GCTotals `json:"store_gc"`
	// Cluster summarizes the coordinator (null when this process is not
	// one, following the store_entries/jobs null-vs-0 discipline).
	Cluster *cluster.Counters `json:"cluster"`
	// Obs summarizes the tracing subsystem — spans started/finished/
	// dropped, ring occupancy and NDJSON log bytes (null when no tracer
	// is attached, same null-vs-0 discipline as the blocks above).
	Obs *obs.TracerStats `json:"obs"`
	// Telemetry summarizes the interval-timeline subsystem: the armed
	// sampling interval (0 = disabled) plus how many timeline documents
	// exist and their byte footprint. Always present — the engine always
	// has a telemetry configuration, even when it is "off".
	Telemetry engine.TelemetryStats `json:"telemetry"`
	// Analytics counts the analytics document cache: cached documents,
	// and requests served one versus assembling it. Always present.
	Analytics AnalyticsCacheStats `json:"analytics"`
}

// StatsSchemaVersion stamps the /stats document shape. Bump it whenever
// StatsResponse gains, loses or re-types a field; the golden test pins
// the exact field set against the current version so the two cannot
// drift silently.
//
// v1: first stamped schema (PR 6) — everything before it was unversioned.
// v2: added "cluster" (coordinator lease/worker counters, PR 7).
// v3: added "trace_cache_mapped_bytes" (mmap-backed slab accounting, PR 8).
// v4: added "obs" (tracer span/ring/log counters, PR 9).
// v5: added "telemetry" (interval-timeline documents and interval, PR 10).
// v6: added "analytics" (analytics document cache entries, hits, misses).
const StatsSchemaVersion = 6

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	type entry struct {
		Name  string `json:"name"`
		Suite string `json:"suite"`
	}
	out := []entry{} // encode as [], never null
	suite := r.URL.Query().Get("suite")
	for _, info := range workload.Catalogue() {
		if suite == "" || info.Suite == suite {
			out = append(out, entry{Name: info.Name, Suite: info.Suite})
		}
	}
	// Ingested traces list beside the catalogue under the "ingested"
	// suite, named exactly as /simulate and /sweep accept them.
	if s.traces != nil && (suite == "" || suite == ingestedSuite) {
		for _, m := range s.traces.List() {
			out = append(out, entry{Name: m.Name(), Suite: ingestedSuite})
		}
	}
	// Every catalogue suite is non-empty, so zero matches under a filter
	// means the suite name is wrong — flag it like POST /sweep does. The
	// ingested suite is the exception: it exists whenever a registry is
	// attached, and an empty registry is a valid (empty) listing.
	if suite != "" && len(out) == 0 && !(suite == ingestedSuite && s.traces != nil) {
		httpError(w, http.StatusBadRequest, "unknown suite %q", suite)
		return
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handlePrefetchers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, prefetchers.EvaluatedNames())
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.stats())
}

// stats takes the one snapshot /stats serves and /metrics renders: the
// only place that queries subsystems and decides which blocks are null.
func (s *Server) stats() StatsResponse {
	tc := workload.TraceCacheStats()
	resp := StatsResponse{
		StatsSchemaVersion:  StatsSchemaVersion,
		Scale:               s.eng.Scale(),
		Counters:            s.eng.Counters(),
		StoreSchemaVersion:  engine.StoreSchemaVersion,
		TraceCacheEntries:   tc.Entries,
		TraceCacheHits:      tc.Hits,
		TraceCacheMisses:    tc.Misses,
		TraceCacheBytes:     tc.Bytes,
		TraceCacheMapped:    tc.MappedBytes,
		TraceCacheEvictions: tc.Evictions,
		Telemetry:           s.eng.TelemetryStats(),
		Analytics:           s.analytics.counters(),
	}
	if st := s.eng.Store(); st != nil {
		resp.StoreDir = st.Dir()
		n := st.Len()
		resp.StoreEntries = &n
		gc := s.eng.GCTotals()
		resp.StoreGC = &gc
	}
	if s.traces != nil {
		resp.TraceRegistryDir = s.traces.Dir()
		n := s.traces.Len()
		resp.IngestedTraces = &n
	}
	if s.jobs != nil {
		c := s.jobs.Counters()
		resp.Jobs = &c
	}
	if s.cluster != nil {
		c := s.cluster.Counters()
		resp.Cluster = &c
	}
	if s.tracer != nil {
		o := s.tracer.Stats()
		resp.Obs = &o
	}
	return resp
}

// maxBodyBytes bounds request bodies so an oversized JSON document is
// rejected before it is ever held in memory.
const maxBodyBytes = 1 << 20

// decodeStrict decodes a bounded request body, rejecting unknown fields:
// a typo'd overrides knob ("llc_mb" for "llc_mb_per_core") must come back
// as a 400, not silently simulate the default configuration — eliminating
// that class of silent misconfiguration is this API's whole point.
func decodeStrict(w http.ResponseWriter, r *http.Request, v any) error {
	return strictDecode(http.MaxBytesReader(w, r.Body, maxBodyBytes), v)
}

// strictDecode decodes one JSON value, rejecting unknown fields — the
// decoder under both request bodies and background-job specs.
func strictDecode(rd io.Reader, v any) error {
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req SimulateRequest
	if err := decodeStrict(w, r, &req); err != nil {
		httpError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	plan, err := compileSimulate(s.eng.Scale(), req)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.runPlan(w, r, plan)
}

// runPlan runs a compiled synchronous request in one batched engine pass
// under the request's context and answers its document: jobs run in
// parallel and memoize for later requests, and a client that disconnects
// mid-run aborts the work at the next job boundary instead of wasting
// it. Ingested traces are held referenced for the duration so a
// concurrent DELETE /traces can refuse.
func (s *Server) runPlan(w http.ResponseWriter, r *http.Request, plan *requestPlan) {
	release := s.inflight.acquire(plan.jobs)
	defer release()
	if !s.recheckIngested(w, plan.jobs) {
		return
	}
	results, err := s.eng.RunAllContext(r.Context(), plan.jobs, nil)
	if err != nil {
		if r.Context().Err() != nil {
			return // client gone; nobody to answer
		}
		httpError(w, http.StatusConflict, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, plan.assemble(results))
}

// requestPlan is a compiled synchronous request: the engine jobs to run
// and the closure assembling the response document from their results.
// It is the same shape jobs.Plan carries, so the background-jobs Compiler
// is a thin wrapper over the identical validation and caps.
type requestPlan struct {
	jobs     []engine.Job
	assemble func(results []sim.Result) any
}

// compileSimulate validates a /simulate request and plans its two engine
// jobs (baseline + target). All errors are client errors.
func compileSimulate(scale engine.Scale, req SimulateRequest) (*requestPlan, error) {
	job, err := jobFor(req)
	if err != nil {
		return nil, err
	}
	// Per-knob override bounds don't compose into a work bound on their
	// own: 16 cores at maxed-out budgets would simulate for hours. Cap the
	// request's total work (baseline + target across all cores).
	if work := 2 * job.Instructions(scale); work > maxSimulateInstructions {
		return nil, fmt.Errorf(
			"request simulates %d instructions, exceeding the limit of %d (lower cores or the warmup/sim overrides)",
			work, uint64(maxSimulateInstructions))
	}
	return &requestPlan{
		jobs: []engine.Job{job.Baseline(), job},
		assemble: func(results []sim.Result) any {
			return responseFor(scale, req, job, results[1], results[0])
		},
	}, nil
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if err := decodeStrict(w, r, &req); err != nil {
		httpError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	plan, err := compileSweep(s.eng.Scale(), req)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.runPlan(w, r, plan)
}

// sweepGrid is a compiled trace × prefetcher × override-point grid — the
// shared shape under POST /sweep (which simulates all of it) and the
// /analytics endpoints (which aggregate whatever of it has already
// completed). jobs is laid out point-major: for each override point, for
// each trace, the no-prefetch baseline followed by one job per
// prefetcher.
type sweepGrid struct {
	traces     []string
	pfs        []string
	points     []engine.Overrides
	axis       *SweepAxis // nil when no axis was requested
	axisValues []float64  // deduped, aligned with points when axis != nil
	jobs       []engine.Job
}

// index returns the jobs offset of (point vi, trace ti, prefetcher pi);
// pi == -1 addresses the (vi, ti) baseline.
func (g *sweepGrid) index(vi, ti, pi int) int {
	stride := len(g.pfs) + 1
	return vi*len(g.traces)*stride + ti*stride + pi + 1
}

// compileSweep validates a /sweep request and plans its full grid —
// baselines included — plus the row/geomean/sensitivity assembly. All
// errors are client errors.
func compileSweep(scale engine.Scale, req SweepRequest) (*requestPlan, error) {
	g, err := compileSweepGrid(scale, req)
	if err != nil {
		return nil, err
	}
	assemble := func(results []sim.Result) any {
		var resp SweepResponse
		for vi := range g.points {
			perPF := make(map[string][]float64)
			for ti, tr := range g.traces {
				baseline := results[g.index(vi, ti, -1)]
				for pi, pf := range g.pfs {
					i := g.index(vi, ti, pi)
					row := responseFor(scale, SimulateRequest{Trace: tr, Prefetcher: pf}, g.jobs[i], results[i], baseline)
					resp.Rows = append(resp.Rows, row)
					perPF[pf] = append(perPF[pf], row.Speedup)
				}
			}
			if g.axis == nil {
				resp.GeomeanSpeedup = make(map[string]float64)
				for pf, vals := range perPF {
					resp.GeomeanSpeedup[pf] = stats.Geomean(vals)
				}
				continue
			}
			for _, pf := range g.pfs {
				resp.Sensitivity = append(resp.Sensitivity, SensitivityPoint{
					Param:          g.axis.Param,
					Value:          g.axisValues[vi],
					Prefetcher:     pf,
					GeomeanSpeedup: stats.Geomean(perPF[pf]),
				})
			}
		}
		return resp
	}
	return &requestPlan{jobs: g.jobs, assemble: assemble}, nil
}

// compileSweepGrid validates a sweep-shaped request and builds its job
// grid. All errors are client errors.
func compileSweepGrid(scale engine.Scale, req SweepRequest) (*sweepGrid, error) {
	traces := req.Traces
	if req.Suite != "" {
		for _, info := range workload.Suite(req.Suite) {
			traces = append(traces, info.Name)
		}
		if len(traces) == len(req.Traces) {
			return nil, fmt.Errorf("unknown suite %q", req.Suite)
		}
	}
	if len(traces) == 0 || len(req.Prefetchers) == 0 {
		return nil, fmt.Errorf("sweep needs traces (or a suite) and prefetchers")
	}
	// Dedupe traces (suite traces can overlap explicit ones) and
	// prefetchers: a repeat would produce duplicate rows, double-weight
	// the geomeans, and eat into the job cap.
	traces = dedupe(traces)
	pfs := dedupe(req.Prefetchers)

	// Resolve the scenario points: one base Overrides for the whole sweep,
	// expanded by the axis into one point per swept value (a single
	// implicit point when no axis is given). Every point is validated —
	// unknown params, fractional values for integer knobs and out-of-range
	// values never reach the engine.
	var base engine.Overrides
	if req.Overrides != nil {
		base = *req.Overrides
	}
	if err := base.Validate(); err != nil {
		return nil, err
	}
	points := []engine.Overrides{base}
	var axisValues []float64
	if req.Axis != nil {
		if len(req.Axis.Values) == 0 {
			return nil, fmt.Errorf("axis %q has no values", req.Axis.Param)
		}
		points = points[:0]
		// Dedupe values like traces above: a repeated value would yield
		// duplicate rows and sensitivity points and eat into the job cap.
		seenVal := make(map[float64]bool, len(req.Axis.Values))
		for _, v := range req.Axis.Values {
			if seenVal[v] {
				continue
			}
			seenVal[v] = true
			o, err := base.WithParam(req.Axis.Param, v)
			if err != nil {
				return nil, err
			}
			points = append(points, o)
			axisValues = append(axisValues, v)
		}
	}

	// Parametric prefetcher names (vGaze-<n>B, Gaze-PHT<n>) are valid for
	// every positive integer, so per-name validation alone cannot bound a
	// sweep — cap the grid itself.
	if grid := len(points) * len(traces) * (len(pfs) + 1); grid > maxSweepJobs {
		return nil, fmt.Errorf(
			"sweep of %d axis values x %d traces x %d prefetchers needs %d jobs, exceeding the limit of %d",
			len(points), len(traces), len(pfs), grid, maxSweepJobs)
	}
	var grid []engine.Job
	for _, o := range points {
		for _, tr := range traces {
			grid = append(grid, engine.Job{Traces: []string{tr}, L1: []string{"none"}, Overrides: o})
			for _, pf := range pfs {
				grid = append(grid, engine.Job{Traces: []string{tr}, L1: []string{pf}, Overrides: o})
			}
		}
	}
	// The job cap alone stopped bounding cost once Overrides exposed
	// instruction budgets over HTTP: a capped grid of maxed-out budgets
	// would still simulate for days. Bound the total simulated work too.
	var totalInstr uint64
	for _, j := range grid {
		totalInstr += j.Instructions(scale)
	}
	if totalInstr > maxSweepInstructions {
		return nil, fmt.Errorf(
			"sweep simulates %d instructions in total, exceeding the limit of %d (shrink the grid or the warmup/sim overrides)",
			totalInstr, uint64(maxSweepInstructions))
	}

	// Validate each distinct trace and prefetcher name once before
	// spending any simulation time (constructing a prefetcher just to
	// validate its name is not free), then batch the entire grid —
	// baselines included — through one engine sweep.
	for _, tr := range traces {
		if !workload.Exists(tr) {
			return nil, fmt.Errorf("unknown trace %q", tr)
		}
	}
	for _, pf := range pfs {
		if _, err := prefetchers.New(pf); err != nil {
			return nil, err
		}
	}
	return &sweepGrid{
		traces:     traces,
		pfs:        pfs,
		points:     points,
		axis:       req.Axis,
		axisValues: axisValues,
		jobs:       grid,
	}, nil
}

// maxCores and maxSweepJobs bound per-request simulation size: the paper
// evaluates up to eight cores and its largest figure sweeps a few hundred
// (trace, prefetcher) pairs, and one unauthenticated request must not be
// able to wedge the process with an arbitrarily large system or grid.
const (
	maxCores     = 16
	maxSweepJobs = 1024
	// maxSweepInstructions bounds the summed warmup+sim budget across a
	// sweep's jobs — generous for any paper-scale grid at Full budgets
	// (~1.5B), far below what maxed-out per-job overrides could request.
	// maxSimulateInstructions bounds one /simulate the same way (baseline
	// plus target across all cores).
	maxSweepInstructions    = 8_000_000_000
	maxSimulateInstructions = 1_000_000_000
)

// dedupe returns names with duplicates removed, preserving first-seen
// order (in place — callers pass request-owned slices).
func dedupe(names []string) []string {
	seen := make(map[string]bool, len(names))
	out := names[:0]
	for _, n := range names {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}

// jobFor validates a request against the workload catalogue and the
// prefetcher factory and converts it to an engine job.
func jobFor(req SimulateRequest) (engine.Job, error) {
	traces := req.Traces
	if len(traces) > 0 && (req.Trace != "" || req.Cores != 0) {
		// Silently ignoring trace/cores when traces is set would return a
		// system the client did not ask for.
		return engine.Job{}, fmt.Errorf("traces is exclusive with trace and cores")
	}
	if len(traces) == 0 {
		if req.Trace == "" {
			return engine.Job{}, fmt.Errorf("need trace or traces")
		}
		cores := req.Cores
		if cores < 1 {
			cores = 1
		}
		if cores > maxCores {
			return engine.Job{}, fmt.Errorf("cores = %d exceeds the limit of %d", cores, maxCores)
		}
		for i := 0; i < cores; i++ {
			traces = append(traces, req.Trace)
		}
	}
	if len(traces) > maxCores {
		return engine.Job{}, fmt.Errorf("%d traces exceeds the per-job core limit of %d", len(traces), maxCores)
	}
	job := engine.Job{Traces: traces, L1: []string{req.Prefetcher}}
	if req.L2 != "" {
		job.L2 = []string{req.L2}
	}
	if req.Overrides != nil {
		job.Overrides = *req.Overrides
	}
	// Job.Validate is the engine's canonical invariant (traces exist,
	// prefetcher names construct, power-of-two core count, overrides in
	// range); the engine panics on jobs that skip it.
	if err := job.Validate(); err != nil {
		return engine.Job{}, err
	}
	return job, nil
}

func responseFor(scale engine.Scale, req SimulateRequest, job engine.Job, res, base sim.Result) SimulateResponse {
	var overrides *engine.Overrides
	if !job.Overrides.IsZero() {
		o := job.Overrides
		overrides = &o
	}
	return SimulateResponse{
		Traces:           job.Traces,
		Prefetcher:       req.Prefetcher,
		L2:               req.L2,
		Cores:            len(job.Traces),
		Overrides:        overrides,
		Address:          job.ContentAddress(scale),
		IPC:              res.MeanIPC(),
		Speedup:          engine.Speedup(res, base),
		Accuracy:         res.Accuracy(),
		Coverage:         res.Coverage(),
		LateFraction:     res.LateFraction(),
		IssuedPrefetches: res.IssuedPrefetches(),
		L1MPKI:           res.L1MPKI(),
		LLCMPKI:          res.LLCMPKI(),
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}
