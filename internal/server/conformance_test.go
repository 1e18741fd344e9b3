package server

// The server-wide HTTP conformance harness: one table enumerating every
// endpoint and its malformed-input cases, asserting the three things
// clients program against — the status code, the Content-Type, and the
// error-body contract (every handler-generated error is a JSON object
// with a non-empty "error" string; router-generated 404/405 are plain
// text). New endpoints must add rows here; the coverage check at the
// bottom fails the suite if a registered route has no row.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/traceset"
	"repro/internal/workload"
)

// conformanceCase is one request → response-contract row.
type conformanceCase struct {
	name   string
	method string
	path   string
	body   string // sent as application/json when non-empty

	wantStatus int
	// wantJSONError asserts the {"error": "..."} body shape (implied for
	// every 4xx/5xx from our handlers).
	wantJSONError bool
	// wantCT overrides the expected Content-Type prefix (default:
	// application/json for handler responses).
	wantCT string
	// wantErrorContains, when set, must appear in the "error" string.
	wantErrorContains string
}

func conformanceServer(t *testing.T) *httptest.Server {
	t.Helper()
	eng := engine.New(engine.Options{Scale: tiny})
	mgr, err := jobs.Open(jobs.Options{Engine: eng, Compile: Compiler(eng), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Shutdown(context.Background()) }) //nolint:errcheck
	reg, err := traceset.Open(t.TempDir(), traceset.Options{})
	if err != nil {
		t.Fatal(err)
	}
	workload.ResetSources()
	workload.RegisterSource(reg)
	t.Cleanup(workload.ResetSources)
	coord := cluster.NewCoordinator(cluster.CoordinatorOptions{Engine: eng})
	tracer := obs.NewTracer(obs.TracerOptions{})
	ts := httptest.NewServer(New(eng).AttachJobs(mgr).AttachTraces(reg).AttachCluster(coord).AttachTracer(tracer).Handler())
	t.Cleanup(ts.Close)
	return ts
}

func TestHTTPConformance(t *testing.T) {
	const missingAddr = "0000000000000000000000000000000000000000000000000000000000000000"
	cases := []conformanceCase{
		// Health and catalogue reads.
		{name: "healthz ok", method: "GET", path: "/healthz", wantStatus: 200},
		{name: "readyz ok", method: "GET", path: "/readyz", wantStatus: 200},
		{name: "traces ok", method: "GET", path: "/traces", wantStatus: 200},
		{name: "traces unknown suite", method: "GET", path: "/traces?suite=nope", wantStatus: 400, wantJSONError: true},
		{name: "prefetchers ok", method: "GET", path: "/prefetchers", wantStatus: 200},
		{name: "stats ok", method: "GET", path: "/stats", wantStatus: 200},
		{name: "metrics ok", method: "GET", path: "/metrics", wantStatus: 200, wantCT: "text/plain"},

		// Trace registry.
		{name: "trace upload garbage", method: "POST", path: "/traces?name=x", body: "not a trace",
			wantStatus: 400, wantJSONError: true},
		{name: "trace manifest missing", method: "GET", path: "/traces/" + missingAddr, wantStatus: 404, wantJSONError: true},
		{name: "trace data missing", method: "GET", path: "/traces/" + missingAddr + "/data", wantStatus: 404, wantJSONError: true},
		{name: "trace delete missing", method: "DELETE", path: "/traces/" + missingAddr, wantStatus: 404, wantJSONError: true},

		// Synchronous simulation endpoints: malformed JSON, unknown field,
		// semantic validation.
		{name: "simulate ok", method: "POST", path: "/simulate",
			body: `{"trace":"lbm-1274","prefetcher":"Gaze"}`, wantStatus: 200},
		{name: "simulate malformed json", method: "POST", path: "/simulate",
			body: `{"trace":`, wantStatus: 400, wantJSONError: true},
		{name: "simulate unknown field", method: "POST", path: "/simulate",
			body: `{"trace":"lbm-1274","prefetcher":"Gaze","bogus":1}`, wantStatus: 400, wantJSONError: true},
		{name: "simulate unknown override knob", method: "POST", path: "/simulate",
			body: `{"trace":"lbm-1274","prefetcher":"Gaze","overrides":{"llc_mb":1}}`, wantStatus: 400, wantJSONError: true},
		// Time-sliced execution was removed: its knob is an unknown field
		// like any other, never silently ignored.
		{name: "simulate removed slice_shards knob", method: "POST", path: "/simulate",
			body:       `{"trace":"lbm-1274","prefetcher":"Gaze","overrides":{"slice_shards":4}}`,
			wantStatus: 400, wantJSONError: true, wantErrorContains: `unknown field "slice_shards"`},
		{name: "simulate unknown trace", method: "POST", path: "/simulate",
			body: `{"trace":"nope","prefetcher":"Gaze"}`, wantStatus: 400, wantJSONError: true},
		{name: "simulate empty body", method: "POST", path: "/simulate",
			body: " ", wantStatus: 400, wantJSONError: true},
		{name: "sweep malformed json", method: "POST", path: "/sweep",
			body: `[`, wantStatus: 400, wantJSONError: true},
		{name: "sweep unknown prefetcher", method: "POST", path: "/sweep",
			body: `{"traces":["lbm-1274"],"prefetchers":["nope"]}`, wantStatus: 400, wantJSONError: true},
		{name: "sweep axis without values", method: "POST", path: "/sweep",
			body:       `{"traces":["lbm-1274"],"prefetchers":["Gaze"],"axis":{"param":"llc_mb_per_core"}}`,
			wantStatus: 400, wantJSONError: true},

		// Analytics reads.
		{name: "analytics matrix ok", method: "GET",
			path: "/analytics/matrix?traces=lbm-1274&prefetchers=Gaze", wantStatus: 200},
		{name: "analytics matrix unknown param", method: "GET",
			path: "/analytics/matrix?bogus=1", wantStatus: 400, wantJSONError: true},
		{name: "analytics speedup ok", method: "GET",
			path: "/analytics/speedup?traces=lbm-1274&prefetchers=Gaze", wantStatus: 200},
		{name: "analytics speedup rejects axis", method: "GET",
			path:       "/analytics/speedup?traces=lbm-1274&param=llc_mb_per_core&values=1",
			wantStatus: 400, wantJSONError: true},
		{name: "analytics timeline ok", method: "GET",
			path: "/analytics/timeline?trace=lbm-1274&prefetchers=Gaze", wantStatus: 200},
		{name: "analytics timeline unknown param", method: "GET",
			path: "/analytics/timeline?trace=lbm-1274&bogus=1", wantStatus: 400, wantJSONError: true},
		{name: "analytics timeline unknown trace", method: "GET",
			path: "/analytics/timeline?trace=nope", wantStatus: 400, wantJSONError: true},
		{name: "analytics timeline missing trace", method: "GET",
			path: "/analytics/timeline?prefetchers=Gaze", wantStatus: 400, wantJSONError: true},

		// Timeline documents.
		{name: "timeline missing", method: "GET", path: "/results/" + missingAddr + "/timeline",
			wantStatus: 404, wantJSONError: true},
		{name: "timeline unknown param", method: "GET", path: "/results/" + missingAddr + "/timeline?bogus=1",
			wantStatus: 400, wantJSONError: true},
		// Of several unknown parameters, the sorted-first is named, never
		// whichever map iteration yields first.
		{name: "timeline unknown params sorted", method: "GET", path: "/results/" + missingAddr + "/timeline?b=1&a=1",
			wantStatus: 400, wantJSONError: true, wantErrorContains: `parameter "a"`},
		{name: "timeline unknown format", method: "GET", path: "/results/" + missingAddr + "/timeline?format=xml",
			wantStatus: 400, wantJSONError: true},

		// Jobs API.
		{name: "job submit malformed", method: "POST", path: "/jobs",
			body: `{"type":`, wantStatus: 400, wantJSONError: true},
		{name: "job submit unknown type", method: "POST", path: "/jobs",
			body: `{"type":"nope","request":{}}`, wantStatus: 400, wantJSONError: true},
		{name: "job list ok", method: "GET", path: "/jobs", wantStatus: 200},
		{name: "job list unknown state", method: "GET", path: "/jobs?state=bogus", wantStatus: 400, wantJSONError: true},
		{name: "job list bad limit", method: "GET", path: "/jobs?limit=x", wantStatus: 400, wantJSONError: true},
		{name: "job list unknown cursor", method: "GET", path: "/jobs?after=nope", wantStatus: 400, wantJSONError: true},
		{name: "job get missing", method: "GET", path: "/jobs/nope", wantStatus: 404, wantJSONError: true},
		{name: "job result missing", method: "GET", path: "/jobs/nope/result", wantStatus: 404, wantJSONError: true},
		{name: "job events missing", method: "GET", path: "/jobs/nope/events", wantStatus: 404, wantJSONError: true},
		{name: "job cancel missing", method: "DELETE", path: "/jobs/nope", wantStatus: 404, wantJSONError: true},

		// Admin.
		{name: "admin gc bad duration", method: "POST", path: "/admin/gc",
			body: `{"max_age":"soon"}`, wantStatus: 400, wantJSONError: true},
		{name: "admin gc unknown field", method: "POST", path: "/admin/gc",
			body: `{"bogus":true}`, wantStatus: 400, wantJSONError: true},
		{name: "admin gc no store", method: "POST", path: "/admin/gc",
			body: `{}`, wantStatus: 409, wantJSONError: true},

		// Cluster API.
		{name: "cluster info ok", method: "GET", path: "/cluster", wantStatus: 200},
		{name: "cluster register malformed", method: "POST", path: "/cluster/workers",
			body: `{"name":`, wantStatus: 400, wantJSONError: true},
		{name: "cluster register incompatible", method: "POST", path: "/cluster/workers",
			body: `{"concurrency":1,"store_schema_version":999}`, wantStatus: 409, wantJSONError: true},
		{name: "cluster deregister unknown", method: "DELETE", path: "/cluster/workers/nope",
			wantStatus: 404, wantJSONError: true},
		{name: "cluster heartbeat unknown", method: "POST", path: "/cluster/workers/nope/heartbeat",
			body: `{}`, wantStatus: 404, wantJSONError: true},
		{name: "cluster lease unknown worker", method: "POST", path: "/cluster/lease",
			body: `{"worker_id":"nope"}`, wantStatus: 404, wantJSONError: true},
		{name: "cluster result garbage", method: "PUT", path: "/cluster/results/" + missingAddr,
			body: "not a result document", wantStatus: 400, wantJSONError: true},
		{name: "cluster telemetry garbage", method: "PUT", path: "/cluster/telemetry/" + missingAddr,
			body: "not a telemetry document", wantStatus: 400, wantJSONError: true},
		{name: "cluster fail unknown unit", method: "POST", path: "/cluster/failures/" + missingAddr,
			body: `{"worker_id":"nope","error":"boom"}`, wantStatus: 200},

		// Debug traces.
		{name: "debug traces ok", method: "GET", path: "/debug/traces", wantStatus: 200},
		{name: "debug traces bad limit", method: "GET", path: "/debug/traces?limit=x",
			wantStatus: 400, wantJSONError: true},
		{name: "debug traces unknown job", method: "GET", path: "/debug/traces?job=nope",
			wantStatus: 404, wantJSONError: true},

		// Router-level conformance: unknown path and wrong method come
		// from net/http's mux as plain text.
		{name: "unknown path", method: "GET", path: "/no/such/endpoint", wantStatus: 404, wantCT: "text/plain"},
		{name: "wrong method", method: "DELETE", path: "/stats", wantStatus: 405, wantCT: "text/plain"},
		{name: "wrong method simulate", method: "GET", path: "/simulate", wantStatus: 405, wantCT: "text/plain"},
	}

	ts := conformanceServer(t)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var body io.Reader
			if tc.body != "" {
				body = strings.NewReader(tc.body)
			}
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, body)
			if err != nil {
				t.Fatal(err)
			}
			if tc.body != "" {
				req.Header.Set("Content-Type", "application/json")
			}
			r, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Body.Close()
			if r.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d", r.StatusCode, tc.wantStatus)
			}
			wantCT := tc.wantCT
			if wantCT == "" {
				wantCT = "application/json"
			}
			if ct := r.Header.Get("Content-Type"); !strings.HasPrefix(ct, wantCT) {
				t.Errorf("content type = %q, want prefix %q", ct, wantCT)
			}
			if tc.wantJSONError {
				var e struct {
					Error string `json:"error"`
				}
				if err := json.NewDecoder(r.Body).Decode(&e); err != nil {
					t.Fatalf("error body is not JSON: %v", err)
				}
				if e.Error == "" {
					t.Error(`error body missing non-empty "error" field`)
				}
				if !strings.Contains(e.Error, tc.wantErrorContains) {
					t.Errorf("error %q does not name %q", e.Error, tc.wantErrorContains)
				}
			}
		})
	}

	// Route coverage: every pattern Handler registers must appear in the
	// table (matched on method + first path segment), so an endpoint
	// added without conformance rows fails here, not in code review.
	t.Run("route coverage", func(t *testing.T) {
		covered := make(map[string]bool)
		for _, tc := range cases {
			covered[tc.method+" /"+firstSegment(tc.path)] = true
		}
		for _, route := range []string{
			"GET /healthz", "GET /readyz", "GET /traces", "POST /traces", "DELETE /traces",
			"GET /prefetchers", "GET /stats", "GET /metrics",
			"GET /analytics", "GET /results", "POST /admin",
			"POST /simulate", "POST /sweep",
			"POST /jobs", "GET /jobs", "DELETE /jobs",
			"GET /cluster", "POST /cluster", "PUT /cluster", "DELETE /cluster",
			"GET /debug",
		} {
			if !covered[route] {
				t.Errorf("registered route %q has no conformance case", route)
			}
		}
	})
}

func firstSegment(path string) string {
	path = strings.TrimPrefix(path, "/")
	if i := strings.IndexAny(path, "/?"); i >= 0 {
		path = path[:i]
	}
	return path
}
