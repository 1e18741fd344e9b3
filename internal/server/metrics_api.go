// GET /metrics: the /stats snapshot in Prometheus text exposition format
// (text/plain; version=0.0.4), written by hand — the format is three
// line shapes (# HELP, # TYPE, sample) and taking a client library for it
// would violate the repo's no-dependency rule. The endpoint is read-only,
// unauthenticated and cheap (one Server.stats snapshot), so scraping it
// every few seconds is fine.
//
// There is one metrics source: Server.stats. metricRows maps each numeric
// field of that document, by its dotted JSON path, to a gaze_* series and
// its HELP text, and the renderer walks the snapshot's JSON, so a block
// that is null in /stats (no store, jobs manager, registry, coordinator
// or tracer) exports no series here. The metric type follows from the
// name: _total-suffixed series are counters, everything else a gauge —
// the rule obs.LintProm enforces. Only the latency histograms come from
// elsewhere, the obs bundle.
package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
)

// metricRows is the /stats → /metrics table. Every numeric /stats field
// has exactly one row (TestMetricsMirrorStats).
var metricRows = []struct{ path, name, help string }{
	{"stats_schema_version", "gaze_stats_schema_version", "Schema version of the /stats document."},
	{"store_schema_version", "gaze_store_schema_version", "Schema version of result-store records (part of every content address)."},
	{"scale.TracesPerSuite", "gaze_scale_traces_per_suite", "Traces per suite at the engine's scale (0 = the whole catalogue)."},
	{"scale.TraceLen", "gaze_scale_trace_records", "Generated records per trace at the engine's scale."},
	{"scale.Warmup", "gaze_scale_warmup_instructions", "Per-core warmup instruction budget at the engine's scale."},
	{"scale.Sim", "gaze_scale_sim_instructions", "Per-core measured instruction budget at the engine's scale."},

	{"counters.MemoHits", "gaze_engine_memo_hits_total", "Engine runs served from the in-process memo."},
	{"counters.StoreHits", "gaze_engine_store_hits_total", "Engine runs served from the persisted result store."},
	{"counters.Simulated", "gaze_engine_simulated_total", "Engine runs computed by the simulator."},

	{"trace_cache_entries", "gaze_trace_cache_entries", "Materialized trace slabs resident in memory."},
	{"trace_cache_bytes", "gaze_trace_cache_bytes", "Resident bytes of materialized trace slabs."},
	{"trace_cache_mapped_bytes", "gaze_trace_cache_mapped_bytes", "Bytes of mmap-backed columnar trace slabs (kernel page cache, not heap)."},
	{"trace_cache_hits", "gaze_trace_cache_hits_total", "Materialize calls served an existing or in-flight slab."},
	{"trace_cache_misses", "gaze_trace_cache_misses_total", "Materialize calls that generated a slab."},
	{"trace_cache_evictions", "gaze_trace_cache_evictions_total", "Trace slabs dropped to honor the byte budget."},

	{"store_entries", "gaze_store_entries", "Result records in the persisted store."},
	{"store_gc.runs", "gaze_store_gc_runs_total", "Result-store GC cycles completed."},
	{"store_gc.reclaimed_entries", "gaze_store_gc_reclaimed_entries_total", "Result records deleted by GC."},
	{"store_gc.reclaimed_bytes", "gaze_store_gc_reclaimed_bytes_total", "Bytes reclaimed by result-store GC."},

	{"jobs.queued", "gaze_jobs_queued", "Background jobs waiting to run."},
	{"jobs.running", "gaze_jobs_running", "Background jobs currently running."},
	{"jobs.succeeded", "gaze_jobs_succeeded_total", "Background jobs completed successfully."},
	{"jobs.failed", "gaze_jobs_failed_total", "Background jobs that failed."},
	{"jobs.canceled", "gaze_jobs_canceled_total", "Background jobs canceled by clients."},
	{"jobs.interrupted", "gaze_jobs_interrupted_total", "Background jobs interrupted by shutdown."},
	{"jobs.recovered", "gaze_jobs_recovered_total", "Queued jobs recovered from the journal at startup."},

	{"cluster.workers", "gaze_cluster_workers", "Workers currently registered with the coordinator."},
	{"cluster.units_pending", "gaze_cluster_units_pending", "Work units waiting to be leased."},
	{"cluster.units_leased", "gaze_cluster_units_leased", "Work units currently leased to workers."},
	{"cluster.leases", "gaze_cluster_leases_total", "Work units handed to workers."},
	{"cluster.releases", "gaze_cluster_releases_total", "Leases revoked and requeued (deadline expiry or deregister)."},
	{"cluster.results", "gaze_cluster_results_total", "Uploaded results that settled a live unit."},
	{"cluster.duplicate_results", "gaze_cluster_duplicate_results_total", "Verified uploads for already-settled units."},
	{"cluster.failures", "gaze_cluster_failures_total", "Units settled by deterministic failure reports."},
	{"cluster.replications", "gaze_cluster_replications_total", "Ingested traces replicated to workers (worker-reported)."},

	{"ingested_traces", "gaze_ingested_traces", "External traces resident in the registry."},

	{"telemetry.interval", "gaze_telemetry_sampling_interval_instructions", "Armed interval-telemetry sampling period in measured instructions (0 = disabled)."},
	{"telemetry.documents", "gaze_telemetry_documents", "Timeline documents held by the engine (persisted store when attached, in-process memo otherwise)."},
	{"telemetry.bytes", "gaze_telemetry_bytes", "Byte footprint of the engine's timeline documents."},

	{"obs.spans_started", "gaze_obs_spans_started_total", "Spans opened by the tracer."},
	{"obs.spans_finished", "gaze_obs_spans_finished_total", "Spans ended and recorded."},
	{"obs.spans_dropped", "gaze_obs_spans_dropped_total", "Spans evicted from the ring buffer."},
	{"obs.ring_occupancy", "gaze_obs_ring_occupancy", "Spans currently held in the debug ring buffer."},
	{"obs.trace_log_bytes", "gaze_obs_trace_log_bytes_total", "Bytes written to the NDJSON span log."},

	{"analytics.entries", "gaze_analytics_cache_entries", "Assembled analytics documents cached in memory."},
	{"analytics.hits", "gaze_analytics_cache_hits_total", "Analytics requests served a cached document."},
	{"analytics.misses", "gaze_analytics_cache_misses_total", "Analytics requests that assembled a document."},
}

// statsFields flattens a /stats snapshot to its numeric JSON fields,
// keyed by dotted path ("jobs.queued", "counters.MemoHits"). Null blocks
// and strings contribute nothing.
func statsFields(st StatsResponse) map[string]float64 {
	raw, err := json.Marshal(st)
	var doc any
	if err == nil {
		err = json.Unmarshal(raw, &doc)
	}
	if err != nil { // StatsResponse round-trips by construction
		panic(err)
	}
	out := make(map[string]float64)
	flattenJSON(out, "", doc)
	return out
}

func flattenJSON(out map[string]float64, path string, v any) {
	switch v := v.(type) {
	case float64:
		out[path] = v
	case map[string]any:
		for k, x := range v {
			flattenJSON(out, strings.TrimPrefix(path+"."+k, "."), x)
		}
	}
}

// writeStatsProm renders the table rows present in one snapshot.
func writeStatsProm(b *strings.Builder, st StatsResponse) {
	fields := statsFields(st)
	for _, m := range metricRows {
		v, ok := fields[m.path]
		if !ok {
			continue
		}
		typ := "gauge"
		if strings.HasSuffix(m.name, "_total") {
			typ = "counter"
		}
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n%s %s\n",
			m.name, m.help, m.name, typ, m.name, strconv.FormatFloat(v, 'g', -1, 64))
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	writeStatsProm(&b, s.stats())
	// Latency histograms (the obs bundle). The HTTP and engine-phase
	// families always render — New wires a default bundle — while the
	// queue-wait and lease-hold families follow their subsystems'
	// attachment, like the null blocks above.
	s.metrics.HTTPDuration.WriteProm(&b)
	s.metrics.EnginePhase.WriteProm(&b)
	if s.jobs != nil {
		s.metrics.JobQueueWait.WriteProm(&b)
	}
	if s.cluster != nil {
		s.metrics.LeaseHold.WriteProm(&b)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write([]byte(b.String())) //nolint:errcheck // client disconnects are routine
}
