package server

import (
	"context"
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
)

// lintPromText validates a Prometheus text-exposition document via the
// shared obs lint (the same parser cmd/promlint and CI use): HELP/TYPE
// pairing, counter/gauge naming, and full histogram-family conformance
// (le ordering, cumulative buckets, +Inf terminal, _sum/_count
// presence).
func lintPromText(t *testing.T, text string) *obs.PromText {
	t.Helper()
	doc, err := obs.LintProm(text)
	if err != nil {
		t.Fatalf("prometheus lint: %v", err)
	}
	return doc
}

// scrapeDoc fetches and lints /metrics, returning the parsed document
// (unlabeled samples keyed by bare name, labeled ones by name{labels}).
func scrapeDoc(t *testing.T, url string) *obs.PromText {
	t.Helper()
	r, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", r.StatusCode)
	}
	if ct := r.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") || !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type = %q, want Prometheus text format", ct)
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		t.Fatal(err)
	}
	return lintPromText(t, string(body))
}

func scrape(t *testing.T, url string) map[string]float64 {
	t.Helper()
	return scrapeDoc(t, url).Samples
}

// TestMetricsEndpoint lints the exposition and checks the counters move
// with the engine.
func TestMetricsEndpoint(t *testing.T) {
	store, err := engine.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Options{Scale: tiny, Store: store})
	mgr, err := jobs.Open(jobs.Options{Engine: eng, Compile: Compiler(eng), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Shutdown(context.Background()) }) //nolint:errcheck
	ts := httptest.NewServer(New(eng).AttachJobs(mgr).Handler())
	t.Cleanup(ts.Close)

	before := scrape(t, ts.URL)
	for _, name := range []string{
		"gaze_stats_schema_version",
		"gaze_engine_memo_hits_total", "gaze_engine_store_hits_total", "gaze_engine_simulated_total",
		"gaze_trace_cache_entries", "gaze_trace_cache_bytes",
		"gaze_trace_cache_hits_total", "gaze_trace_cache_misses_total", "gaze_trace_cache_evictions_total",
		"gaze_store_entries", "gaze_store_gc_runs_total",
		"gaze_store_gc_reclaimed_entries_total", "gaze_store_gc_reclaimed_bytes_total",
		"gaze_jobs_queued", "gaze_jobs_running", "gaze_jobs_succeeded_total",
		"gaze_analytics_cache_entries", "gaze_analytics_cache_hits_total", "gaze_analytics_cache_misses_total",
		"gaze_telemetry_sampling_interval_instructions", "gaze_telemetry_documents", "gaze_telemetry_bytes",
		"gaze_store_schema_version", "gaze_jobs_recovered_total",
		"gaze_scale_traces_per_suite", "gaze_scale_trace_records",
		"gaze_scale_warmup_instructions", "gaze_scale_sim_instructions",
	} {
		if _, ok := before[name]; !ok {
			t.Errorf("metric %s missing", name)
		}
	}
	if v := before["gaze_stats_schema_version"]; v != float64(StatsSchemaVersion) {
		t.Errorf("gaze_stats_schema_version = %v, want %d", v, StatsSchemaVersion)
	}

	// One simulation moves the engine counters and populates the store.
	postJSON(t, ts.URL+"/simulate", SimulateRequest{Trace: "lbm-1274", Prefetcher: "Gaze"}, nil)
	mid := scrape(t, ts.URL)
	if mid["gaze_engine_simulated_total"] <= before["gaze_engine_simulated_total"] {
		t.Error("simulated counter did not advance")
	}
	if mid["gaze_store_entries"] < 2 {
		t.Errorf("store entries = %v, want >= 2 (job + baseline)", mid["gaze_store_entries"])
	}

	// A GC cycle shows up in the reclaim counters — the acceptance
	// criterion that reclaimed bytes are visible in /metrics.
	r := postJSON(t, ts.URL+"/admin/gc", GCRequest{MaxAge: "0s"}, nil)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("admin gc: status = %d", r.StatusCode)
	}
	after := scrape(t, ts.URL)
	if after["gaze_store_gc_runs_total"] != mid["gaze_store_gc_runs_total"]+1 {
		t.Error("gc runs counter did not advance")
	}
	if after["gaze_store_gc_reclaimed_bytes_total"] <= mid["gaze_store_gc_reclaimed_bytes_total"] {
		t.Error("gc reclaimed-bytes counter did not advance")
	}
	if after["gaze_store_entries"] != 0 {
		t.Errorf("store entries after full GC = %v, want 0", after["gaze_store_entries"])
	}
}

// TestMetricsMirrorStats: /metrics is the /stats snapshot rendered
// through metricRows. With every subsystem attached (so no block is
// null), each row's sample equals the snapshot's JSON value at its path,
// and every numeric JSON path has a row — a StatsResponse field added
// without one fails here.
func TestMetricsMirrorStats(t *testing.T) {
	store, err := engine.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Options{Scale: tiny, Store: store})
	mgr, err := jobs.Open(jobs.Options{Engine: eng, Compile: Compiler(eng), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Shutdown(context.Background()) }) //nolint:errcheck
	reg, err := traceset.Open(t.TempDir(), traceset.Options{})
	if err != nil {
		t.Fatal(err)
	}
	coord := cluster.NewCoordinator(cluster.CoordinatorOptions{Engine: eng})
	tracer := obs.NewTracer(obs.TracerOptions{Log: io.Discard})
	srv := New(eng).AttachJobs(mgr).AttachTraces(reg).AttachCluster(coord).AttachTracer(tracer)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	postJSON(t, ts.URL+"/simulate", SimulateRequest{Trace: "lbm-1274", Prefetcher: "Gaze"}, nil)

	st := srv.stats()
	var b strings.Builder
	writeStatsProm(&b, st)
	doc := lintPromText(t, b.String())
	fields := statsFields(st)

	rowFor := make(map[string]string, len(metricRows))
	for _, m := range metricRows {
		if _, dup := rowFor[m.path]; dup {
			t.Errorf("path %s has two rows", m.path)
		}
		rowFor[m.path] = m.name
		want, ok := fields[m.path]
		if !ok {
			t.Errorf("row %s: no numeric /stats field at path %q", m.name, m.path)
			continue
		}
		if got, ok := doc.Samples[m.name]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want /stats %s = %v", m.name, got, ok, m.path, want)
		}
	}
	for path := range fields {
		if _, ok := rowFor[path]; !ok {
			t.Errorf("/stats field %s has no /metrics row", path)
		}
	}
	if len(doc.Samples) != len(metricRows) {
		t.Errorf("rendered %d samples for %d rows", len(doc.Samples), len(metricRows))
	}
	if fields["counters.Simulated"] == 0 || fields["store_entries"] == 0 || fields["obs.trace_log_bytes"] == 0 {
		t.Errorf("snapshot did not see the simulate: %v", fields)
	}
}

// TestMetricsWithoutStoreOrJobs: the optional metric families drop out
// cleanly instead of exporting zeros for absent subsystems.
func TestMetricsWithoutStoreOrJobs(t *testing.T) {
	ts := newTestServer(t)
	samples := scrape(t, ts.URL)
	for _, name := range []string{
		"gaze_store_entries", "gaze_jobs_queued", "gaze_ingested_traces", "gaze_cluster_workers",
	} {
		if _, ok := samples[name]; ok {
			t.Errorf("metric %s present without its subsystem", name)
		}
	}
	if _, ok := samples["gaze_engine_simulated_total"]; !ok {
		t.Error("core engine metrics missing")
	}
}

// TestMetricsCluster: attaching a coordinator exposes the gaze_cluster_*
// family, and registration moves the worker gauge.
func TestMetricsCluster(t *testing.T) {
	eng := engine.New(engine.Options{Scale: tiny})
	coord := cluster.NewCoordinator(cluster.CoordinatorOptions{Engine: eng})
	ts := httptest.NewServer(New(eng).AttachCluster(coord).Handler())
	t.Cleanup(ts.Close)

	samples := scrape(t, ts.URL)
	for _, name := range []string{
		"gaze_cluster_workers", "gaze_cluster_units_pending", "gaze_cluster_units_leased",
		"gaze_cluster_leases_total", "gaze_cluster_releases_total",
		"gaze_cluster_results_total", "gaze_cluster_duplicate_results_total",
		"gaze_cluster_failures_total", "gaze_cluster_replications_total",
	} {
		if _, ok := samples[name]; !ok {
			t.Errorf("metric %s missing with a coordinator attached", name)
		}
	}
	if samples["gaze_cluster_workers"] != 0 {
		t.Errorf("gaze_cluster_workers = %v, want 0", samples["gaze_cluster_workers"])
	}

	if _, err := coord.Register(cluster.RegisterRequest{
		Concurrency:        1,
		Scale:              eng.Scale(),
		StoreSchemaVersion: engine.StoreSchemaVersion,
	}); err != nil {
		t.Fatal(err)
	}
	if v := scrape(t, ts.URL)["gaze_cluster_workers"]; v != 1 {
		t.Errorf("gaze_cluster_workers after register = %v, want 1", v)
	}
}

// TestAdminGCEndpoint covers the admin surface: bad bodies, no-store
// conflict, and the stats document of a real cycle.
func TestAdminGCEndpoint(t *testing.T) {
	t.Run("no store", func(t *testing.T) {
		ts := newTestServer(t)
		r := postJSON(t, ts.URL+"/admin/gc", GCRequest{}, nil)
		if r.StatusCode != http.StatusConflict {
			t.Fatalf("status = %d, want 409 without a store", r.StatusCode)
		}
	})

	store, err := engine.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(engine.New(engine.Options{Scale: tiny, Store: store})).Handler())
	t.Cleanup(ts.Close)

	t.Run("validation", func(t *testing.T) {
		for _, body := range []string{`{"max_age":"not-a-duration"}`, `{"max_age":"-5m"}`, `{"bogus":1}`} {
			r, err := http.Post(ts.URL+"/admin/gc", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			r.Body.Close()
			if r.StatusCode != http.StatusBadRequest {
				t.Errorf("%s: status = %d, want 400", body, r.StatusCode)
			}
		}
	})

	t.Run("cycle", func(t *testing.T) {
		postJSON(t, ts.URL+"/simulate", SimulateRequest{Trace: "lbm-1274", Prefetcher: "Gaze"}, nil)

		// Default age floor keeps the just-written entries.
		var young GCResponse
		if r := postJSON(t, ts.URL+"/admin/gc", GCRequest{MaxAge: "24h"}, &young); r.StatusCode != http.StatusOK {
			t.Fatalf("status = %d", r.StatusCode)
		}
		if young.Deleted != 0 || young.KeptYoung != 2 || young.MaxAgeSeconds != 24*3600 {
			t.Fatalf("young cycle = %+v", young)
		}

		// max_age 0s collects everything unreferenced.
		var full GCResponse
		postJSON(t, ts.URL+"/admin/gc", GCRequest{MaxAge: "0s"}, &full)
		if full.Deleted != 2 || full.ReclaimedBytes <= 0 {
			t.Fatalf("full cycle = %+v", full)
		}
		if store.Len() != 0 {
			t.Fatalf("store len = %d after full GC", store.Len())
		}
	})

	t.Run("empty body uses default", func(t *testing.T) {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/admin/gc", nil)
		if err != nil {
			t.Fatal(err)
		}
		r, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("empty body: status = %d, want 200", r.StatusCode)
		}
	})
}

// TestMetricsTelemetry: the gaze_telemetry_* family (validated by the
// lint every scrape runs through) reports the armed sampling interval
// and counts documents with their byte footprint as runs persist
// timelines.
func TestMetricsTelemetry(t *testing.T) {
	eng := engine.New(engine.Options{Scale: tiny, TelemetryInterval: 5_000})
	ts := httptest.NewServer(New(eng).Handler())
	t.Cleanup(ts.Close)

	before := scrape(t, ts.URL)
	if v := before["gaze_telemetry_sampling_interval_instructions"]; v != 5_000 {
		t.Errorf("sampling interval gauge = %v, want 5000", v)
	}
	if v := before["gaze_telemetry_documents"]; v != 0 {
		t.Errorf("documents before any run = %v, want 0", v)
	}

	postJSON(t, ts.URL+"/simulate", SimulateRequest{Trace: "lbm-1274", Prefetcher: "Gaze"}, nil)
	after := scrape(t, ts.URL)
	// The simulate computes baseline + target: two timeline documents.
	if v := after["gaze_telemetry_documents"]; v != 2 {
		t.Errorf("documents after a simulate = %v, want 2", v)
	}
	if v := after["gaze_telemetry_bytes"]; v <= 0 {
		t.Errorf("telemetry bytes = %v, want > 0", v)
	}
}

// TestMetricsHistograms: the latency-histogram families render as valid
// Prometheus histograms (the scrape passes the shared lint), the HTTP
// family is labeled by route pattern — never raw path — and the
// queue-wait and lease-hold families follow their subsystems.
func TestMetricsHistograms(t *testing.T) {
	m := obs.NewMetrics()
	eng := engine.New(engine.Options{Scale: tiny, Phases: m.EnginePhase})
	mgr, err := jobs.Open(jobs.Options{Engine: eng, Compile: Compiler(eng), Workers: 1, QueueWait: m.JobQueueWait})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Shutdown(context.Background()) }) //nolint:errcheck
	coord := cluster.NewCoordinator(cluster.CoordinatorOptions{Engine: eng, LeaseHold: m.LeaseHold})
	ts := httptest.NewServer(New(eng).AttachJobs(mgr).AttachCluster(coord).SetMetrics(m).Handler())
	t.Cleanup(ts.Close)

	doc := scrapeDoc(t, ts.URL)
	for _, fam := range []string{
		"gaze_http_request_duration_seconds",
		"gaze_engine_phase_duration_seconds",
		"gaze_jobs_queue_wait_seconds",
		"gaze_cluster_lease_hold_seconds",
	} {
		if doc.Types[fam] != "histogram" {
			t.Errorf("family %s: TYPE = %q, want histogram", fam, doc.Types[fam])
		}
	}

	// A simulate populates the engine-phase family; the scrape above
	// populates the HTTP family (durations observe after the response,
	// so a request sees every request before it, not itself).
	postJSON(t, ts.URL+"/simulate", SimulateRequest{Trace: "lbm-1274", Prefetcher: "Gaze"}, nil)
	doc = scrapeDoc(t, ts.URL)
	if v := doc.Samples[`gaze_http_request_duration_seconds_count{route="GET /metrics"}`]; v < 1 {
		t.Errorf("GET /metrics route count = %v, want >= 1", v)
	}
	if v := doc.Samples[`gaze_http_request_duration_seconds_count{route="POST /simulate"}`]; v != 1 {
		t.Errorf("POST /simulate route count = %v, want 1", v)
	}
	for _, phase := range []string{"queue_wait", "simulate", "materialize"} {
		key := `gaze_engine_phase_duration_seconds_count{phase="` + phase + `"}`
		if v := doc.Samples[key]; v < 1 {
			t.Errorf("engine phase %q count = %v, want >= 1", phase, v)
		}
	}
}

// TestMetricsHistogramsWithoutSubsystems: without a jobs manager or
// coordinator, the conditional histogram families drop out while the
// always-on HTTP and engine families remain.
func TestMetricsHistogramsWithoutSubsystems(t *testing.T) {
	ts := newTestServer(t)
	doc := scrapeDoc(t, ts.URL)
	if doc.Types["gaze_http_request_duration_seconds"] != "histogram" {
		t.Error("HTTP duration family missing")
	}
	if doc.Types["gaze_engine_phase_duration_seconds"] != "histogram" {
		t.Error("engine phase family missing")
	}
	for _, fam := range []string{"gaze_jobs_queue_wait_seconds", "gaze_cluster_lease_hold_seconds"} {
		if _, ok := doc.Types[fam]; ok {
			t.Errorf("family %s present without its subsystem", fam)
		}
	}
}
