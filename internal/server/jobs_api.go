// Jobs API: the asynchronous face of /simulate and /sweep. A job is the
// same declarative request, submitted with POST /jobs and executed in the
// background by internal/jobs on the same shared engine — so a job and a
// synchronous request describing the same work coalesce onto one
// simulation and return rows with identical content addresses.
//
//	POST   /jobs              submit  → 202 + content-addressed id
//	GET    /jobs              list jobs (?state= filter, ?limit=/?after= pagination)
//	GET    /jobs/{id}         status, progress, ETA
//	GET    /jobs/{id}/result  the SweepResponse / SimulateResponse document
//	GET    /jobs/{id}/events  NDJSON stream of status snapshots
//	DELETE /jobs/{id}         cooperative cancel
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/engine"
	"repro/internal/jobs"
)

// Compiler adapts the server's declarative request types to the jobs
// subsystem: spec type "sweep" compiles a SweepRequest, "simulate" a
// SimulateRequest, with exactly the validation, strict decoding and work
// caps of the synchronous handlers. Inject it into jobs.Open for the
// same engine the server runs on.
func Compiler(eng *engine.Engine) jobs.Compiler {
	return func(spec jobs.Spec) (*jobs.Plan, error) {
		if len(bytes.TrimSpace(spec.Request)) == 0 {
			return nil, fmt.Errorf("job has no request body")
		}
		scale := eng.Scale()
		switch spec.Type {
		case "sweep":
			var req SweepRequest
			if err := decodeSpecJSON(spec.Request, &req); err != nil {
				return nil, err
			}
			plan, err := compileSweep(scale, req)
			return planFor(req, plan, err)
		case "simulate":
			var req SimulateRequest
			if err := decodeSpecJSON(spec.Request, &req); err != nil {
				return nil, err
			}
			plan, err := compileSimulate(scale, req)
			return planFor(req, plan, err)
		}
		return nil, fmt.Errorf("unknown job type %q (want \"sweep\" or \"simulate\")", spec.Type)
	}
}

// planFor wraps a compiled request plan as a jobs.Plan. The fingerprint
// is the decoded request re-marshaled — one canonical spelling per
// semantic request, so byte-different submissions of the same work hash
// to the same job ID.
func planFor(req any, plan *requestPlan, err error) (*jobs.Plan, error) {
	if err != nil {
		return nil, err
	}
	fp, err := json.Marshal(req)
	if err != nil { // request types marshal by construction
		return nil, err
	}
	return &jobs.Plan{Fingerprint: string(fp), Jobs: plan.jobs, Finalize: plan.assemble}, nil
}

// decodeSpecJSON strict-decodes a raw spec body with the same
// unknown-field rejection as the synchronous handlers.
func decodeSpecJSON(raw json.RawMessage, v any) error {
	if err := strictDecode(bytes.NewReader(raw), v); err != nil {
		return fmt.Errorf("decoding request: %v", err)
	}
	return nil
}

// JobSubmitRequest is the POST /jobs body: which handler's request type
// to run ("sweep" or "simulate"), the request itself, and an optional
// dispatch lane ("high" runs before "normal").
type JobSubmitRequest struct {
	Type     string          `json:"type"`
	Priority string          `json:"priority,omitempty"`
	Request  json.RawMessage `json:"request"`
}

// JobProgress is a job's live advancement in wire-friendly units.
type JobProgress struct {
	Done        int   `json:"done"`
	Total       int   `json:"total"`
	Cached      int   `json:"cached"`
	ElapsedMS   int64 `json:"elapsed_ms"`
	RemainingMS int64 `json:"remaining_ms"`
}

// JobStatus is one job on the wire — the submit/list/get/events payload.
type JobStatus struct {
	ID        string      `json:"id"`
	Type      string      `json:"type"`
	Priority  string      `json:"priority"`
	State     string      `json:"state"`
	Error     string      `json:"error,omitempty"`
	Recovered bool        `json:"recovered,omitempty"`
	Coalesced bool        `json:"coalesced,omitempty"`
	Created   time.Time   `json:"created"`
	Started   *time.Time  `json:"started,omitempty"`
	Finished  *time.Time  `json:"finished,omitempty"`
	Progress  JobProgress `json:"progress"`
	// TraceID is the job's run-trace identity — pass it (or the job ID)
	// to GET /debug/traces to see the job's spans. Empty when tracing
	// was off at execution time.
	TraceID string `json:"trace_id,omitempty"`
	// Timings is the per-phase duration breakdown, present once the job
	// reaches a terminal state (and preserved across restarts).
	Timings *jobs.Timings `json:"timings,omitempty"`
	// Timelines links the interval-telemetry documents of this job's
	// completed engine runs (GET /results/{addr}/timeline paths).
	// Populated by GET /jobs/{id} only, for succeeded jobs whose runs
	// executed with telemetry armed; cached replays have no timelines.
	Timelines []string `json:"timelines,omitempty"`
}

// JobListResponse wraps GET /jobs (jobs is [] when empty, never null).
// NextAfter is set when ?limit= truncated the listing: pass it back as
// ?after= to resume — the cursor is a job ID, so the page boundary stays
// stable as new jobs are appended behind it.
type JobListResponse struct {
	Jobs      []JobStatus `json:"jobs"`
	NextAfter string      `json:"next_after,omitempty"`
}

func statusFor(rec jobs.Record) JobStatus {
	st := JobStatus{
		ID:        rec.ID,
		Type:      rec.Spec.Type,
		Priority:  string(rec.Spec.Priority),
		State:     string(rec.State),
		Error:     rec.Error,
		Recovered: rec.Recovered,
		Created:   rec.Created,
		Progress: JobProgress{
			Done:        rec.Progress.Done,
			Total:       rec.Progress.Total,
			Cached:      rec.Progress.Cached,
			ElapsedMS:   rec.Progress.Elapsed.Milliseconds(),
			RemainingMS: rec.Progress.Remaining.Milliseconds(),
		},
	}
	if !rec.Started.IsZero() {
		t := rec.Started
		st.Started = &t
	}
	if !rec.Finished.IsZero() {
		t := rec.Finished
		st.Finished = &t
	}
	st.TraceID = rec.TraceID
	st.Timings = rec.Timings
	return st
}

// jobsEnabled answers 503 (and returns false) when no jobs manager is
// attached — the routes always exist so clients get a clear signal
// rather than a generic 404.
func (s *Server) jobsEnabled(w http.ResponseWriter) bool {
	if s.jobs == nil {
		httpError(w, http.StatusServiceUnavailable, "jobs subsystem not enabled on this server")
		return false
	}
	return true
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	if !s.jobsEnabled(w) {
		return
	}
	var req JobSubmitRequest
	if err := decodeStrict(w, r, &req); err != nil {
		httpError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	rec, coalesced, err := s.jobs.SubmitContext(r.Context(), jobs.Spec{
		Type:     req.Type,
		Request:  req.Request,
		Priority: jobs.Priority(req.Priority),
	})
	switch {
	case errors.Is(err, jobs.ErrQueueFull), errors.Is(err, jobs.ErrClosed):
		httpError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case err != nil:
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	st := statusFor(rec)
	st.Coalesced = coalesced
	writeJSON(w, http.StatusAccepted, st)
}

// handleJobList lists jobs in submission order, with operator-scale
// controls: ?state= filters to one lifecycle state, ?limit= caps the
// page size, and ?after=<job id> resumes past a previous page's last
// row. The cursor indexes the full submission-ordered list (not the
// filtered view), so a row's page position never shifts when jobs in
// other states appear — and since every returned ID exists in that
// list, next_after is always a valid cursor.
func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	if !s.jobsEnabled(w) {
		return
	}
	q := r.URL.Query()
	stateFilter := jobs.State(q.Get("state"))
	if stateFilter != "" {
		switch stateFilter {
		case jobs.Queued, jobs.Running, jobs.Succeeded, jobs.Failed, jobs.Canceled, jobs.Interrupted:
		default:
			httpError(w, http.StatusBadRequest, "unknown state %q", stateFilter)
			return
		}
	}
	limit := 0
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			httpError(w, http.StatusBadRequest, "limit must be a positive integer, got %q", v)
			return
		}
		limit = n
	}
	recs := s.jobs.List()
	if after := q.Get("after"); after != "" {
		start := -1
		for i, rec := range recs {
			if rec.ID == after {
				start = i + 1
				break
			}
		}
		if start < 0 {
			httpError(w, http.StatusBadRequest, "unknown cursor %q", after)
			return
		}
		recs = recs[start:]
	}
	resp := JobListResponse{Jobs: []JobStatus{}}
	for _, rec := range recs {
		if stateFilter != "" && rec.State != stateFilter {
			continue
		}
		if limit > 0 && len(resp.Jobs) == limit {
			resp.NextAfter = resp.Jobs[limit-1].ID
			break
		}
		resp.Jobs = append(resp.Jobs, statusFor(rec))
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	if !s.jobsEnabled(w) {
		return
	}
	rec, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	st := statusFor(rec)
	// Link only timelines that actually exist: a job's runs produce
	// documents exactly when they executed with telemetry armed, so
	// cached replays and telemetry-off runs link nothing.
	for _, addr := range rec.Addresses {
		if _, ok := s.eng.Telemetry(addr); ok {
			st.Timelines = append(st.Timelines, "/results/"+addr+"/timeline")
		}
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	if !s.jobsEnabled(w) {
		return
	}
	doc, err := s.jobs.Result(r.PathValue("id"))
	switch {
	case errors.Is(err, jobs.ErrNotFound):
		httpError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	case err != nil:
		// Not succeeded (yet): the body names the state so clients know
		// whether to keep polling or give up.
		httpError(w, http.StatusConflict, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, doc)
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	if !s.jobsEnabled(w) {
		return
	}
	rec, err := s.jobs.Cancel(r.PathValue("id"))
	switch {
	case errors.Is(err, jobs.ErrNotFound):
		httpError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	case errors.Is(err, jobs.ErrTerminal):
		httpError(w, http.StatusConflict, "job already %s", rec.State)
		return
	}
	// 202, not 200: a running job cancels cooperatively at the next shard
	// boundary; poll GET /jobs/{id} (or stream events) for the terminal
	// state.
	writeJSON(w, http.StatusAccepted, statusFor(rec))
}

// handleJobEvents streams NDJSON status snapshots — one JobStatus per
// line, an immediate snapshot first, then one per state/progress change,
// ending after the terminal snapshot. Consumers lagging behind receive
// latest-wins snapshots (progress is monotonic, never rewound).
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	if !s.jobsEnabled(w) {
		return
	}
	ch, stop, err := s.jobs.Watch(r.PathValue("id"))
	if err != nil {
		httpError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	defer stop()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for {
		select {
		case rec, ok := <-ch:
			if !ok {
				return // terminal snapshot already sent
			}
			if err := enc.Encode(statusFor(rec)); err != nil {
				return // client gone
			}
			if flusher != nil {
				flusher.Flush()
			}
		case <-r.Context().Done():
			return
		}
	}
}
