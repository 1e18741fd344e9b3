// Timeline API: serving the interval-sampled simulation telemetry
// documents the engine persists beside its results (DESIGN.md §11).
//
//	GET /results/{addr}/timeline  one run's timeline (JSON, or CSV via ?format=csv)
//	GET /analytics/timeline       per-prefetcher timeline overlay for one workload
//
// Timelines are derived data: they exist only for runs computed with
// telemetry armed, so the document endpoint distinguishes "not yet" from
// "never" — 409 while the engine is computing the address right now
// (poll again), 404 when no document exists and nothing is in flight.
// Both endpoints are pure reads with strong ETags, following the
// /analytics caching discipline: the document ETag hashes the exact
// bytes served, so a matching If-None-Match answers 304 without
// re-rendering.
package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"repro/internal/engine"
	"repro/internal/prefetchers"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TimelineSchemaVersion stamps the /analytics/timeline overlay document
// shape (the per-result document carries engine.TelemetrySchemaVersion).
//
// v1: first version (PR 10).
const TimelineSchemaVersion = 1

func (s *Server) handleResultTimeline(w http.ResponseWriter, r *http.Request) {
	if err := checkQueryParams(r.URL.Query(), "format"); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	format := r.URL.Query().Get("format")
	if format == "" {
		format = "json"
	}
	if format != "json" && format != "csv" {
		httpError(w, http.StatusBadRequest, "unknown format %q (want json or csv)", format)
		return
	}
	addr := r.PathValue("addr")
	doc, ok := s.eng.Telemetry(addr)
	if !ok {
		// Distinguish "not yet" from "never": an in-flight computation of
		// this address will persist its timeline before the result commits,
		// so a 409 here means "poll again", while 404 is definitive — no
		// document, nothing running (completed runs without telemetry armed,
		// cached replays, or an address this service has never seen).
		if s.eng.Computing(addr) {
			httpError(w, http.StatusConflict, "result %s is computing; its timeline is not yet persisted", short12(addr))
			return
		}
		httpError(w, http.StatusNotFound, "no timeline document for %s (run completed without telemetry, or unknown address)", short12(addr))
		return
	}
	// Strong per-representation ETag: the served bytes are a pure function
	// of (document, format), and the document at one address never changes
	// (content addressing), so the tag is stable until GC removes it.
	etag := timelineETag(format, doc)
	w.Header().Set("ETag", etag)
	w.Header().Set("Cache-Control", "public, no-cache")
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatches(inm, etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	if format == "csv" {
		tel, err := engine.DecodeTelemetry(doc)
		if err != nil {
			httpError(w, http.StatusInternalServerError, "decoding stored timeline: %v", err)
			return
		}
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		writeTimelineCSV(w, tel)
		return
	}
	// The JSON route serves the stored bytes verbatim, but not a sidecar
	// of another schema version: it answers the CSV route's error.
	if err := engine.CheckTelemetryVersion(doc); err != nil {
		httpError(w, http.StatusInternalServerError, "decoding stored timeline: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(doc) //nolint:errcheck // client disconnects are routine
}

// timelineETag derives the strong ETag for one rendered representation.
func timelineETag(format string, doc []byte) string {
	h := sha256.New()
	io.WriteString(h, "timeline-etag/v1\n")
	io.WriteString(h, format)
	io.WriteString(h, "\n")
	h.Write(doc)
	return `"` + hex.EncodeToString(h.Sum(nil)) + `"`
}

// timelineCSVHeader names the flattened per-interval columns, one row
// per (core, interval).
const timelineCSVHeader = "core,prefetcher,start,end,ipc,l1_mpki,l2_mpki,llc_mpki,prefetches_issued,useful_prefetches,late_prefetches,accuracy,coverage,pq_occupancy,dram_row_hit_rate\n"

// writeTimelineCSV flattens a timeline document into spreadsheet- and
// gnuplot-friendly rows.
func writeTimelineCSV(w io.Writer, tel *sim.Telemetry) {
	var b strings.Builder
	b.WriteString(timelineCSVHeader)
	for ci, core := range tel.Cores {
		for _, s := range core.Samples {
			b.WriteString(strconv.Itoa(ci))
			b.WriteByte(',')
			b.WriteString(core.Prefetcher)
			b.WriteByte(',')
			b.WriteString(strconv.FormatUint(s.Start, 10))
			b.WriteByte(',')
			b.WriteString(strconv.FormatUint(s.End, 10))
			b.WriteByte(',')
			b.WriteString(csvFloat(s.IPC))
			b.WriteByte(',')
			b.WriteString(csvFloat(s.L1MPKI))
			b.WriteByte(',')
			b.WriteString(csvFloat(s.L2MPKI))
			b.WriteByte(',')
			b.WriteString(csvFloat(s.LLCMPKI))
			b.WriteByte(',')
			b.WriteString(strconv.FormatUint(s.PrefetchesIssued, 10))
			b.WriteByte(',')
			b.WriteString(strconv.FormatUint(s.UsefulPrefetches, 10))
			b.WriteByte(',')
			b.WriteString(strconv.FormatUint(s.LatePrefetches, 10))
			b.WriteByte(',')
			b.WriteString(csvFloat(s.Accuracy))
			b.WriteByte(',')
			b.WriteString(csvFloat(s.Coverage))
			b.WriteByte(',')
			b.WriteString(strconv.Itoa(s.PQOccupancy))
			b.WriteByte(',')
			b.WriteString(csvFloat(s.DRAMRowHitRate))
			b.WriteByte('\n')
		}
	}
	io.WriteString(w, b.String()) //nolint:errcheck // client disconnects are routine
}

func csvFloat(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

// short12 abbreviates a content address for error messages.
func short12(addr string) string {
	if len(addr) > 12 {
		return addr[:12]
	}
	return addr
}

// TimelineSeries is one prefetcher's timeline in the overlay: the
// engine job's content address (correlatable with /sweep rows and store
// entries), whether a timeline document exists for it, and when it does,
// core 0's interval samples plus the prefetcher's introspection
// document.
type TimelineSeries struct {
	Prefetcher    string               `json:"prefetcher"`
	Address       string               `json:"address"`
	Complete      bool                 `json:"complete"`
	Samples       []sim.IntervalSample `json:"samples,omitempty"`
	Introspection json.RawMessage      `json:"introspection,omitempty"`
}

// TimelineOverlayResponse is the GET /analytics/timeline document:
// per-prefetcher interval timelines for one workload, aggregating only
// timelines that already exist (like the other analytics endpoints, it
// never simulates).
type TimelineOverlayResponse struct {
	SchemaVersion  int              `json:"schema_version"`
	Trace          string           `json:"trace"`
	Interval       uint64           `json:"interval,omitempty"`
	ETag           string           `json:"etag"`
	SeriesTotal    int              `json:"series_total"`
	SeriesComplete int              `json:"series_complete"`
	Series         []TimelineSeries `json:"series"`
}

func (s *Server) handleAnalyticsTimeline(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	if err := checkQueryParams(q, "trace", "prefetchers"); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	tr := q.Get("trace")
	if tr == "" {
		httpError(w, http.StatusBadRequest, "trace is required")
		return
	}
	if !workload.Exists(tr) {
		httpError(w, http.StatusBadRequest, "unknown trace %q", tr)
		return
	}
	pfs := splitList(q.Get("prefetchers"))
	if len(pfs) == 0 {
		pfs = prefetchers.EvaluatedNames()
	}
	pfs = dedupe(pfs)
	for _, pf := range pfs {
		if _, err := prefetchers.New(pf); err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	// The overlay addresses exactly the single-core jobs a sweep of
	// (trace, prefetchers) would run.
	scale := s.eng.Scale()
	resp := TimelineOverlayResponse{
		SchemaVersion: TimelineSchemaVersion,
		Trace:         tr,
		SeriesTotal:   len(pfs),
	}
	var present []string
	addrs := make([]string, len(pfs))
	for i, pf := range pfs {
		job := engine.Job{Traces: []string{tr}, L1: []string{pf}}
		addrs[i] = job.ContentAddress(scale)
	}
	for i, pf := range pfs {
		series := TimelineSeries{Prefetcher: pf, Address: addrs[i]}
		if doc, ok := s.eng.Telemetry(addrs[i]); ok {
			if tel, err := engine.DecodeTelemetry(doc); err == nil && len(tel.Cores) > 0 {
				series.Complete = true
				series.Samples = tel.Cores[0].Samples
				if tel.Cores[0].Introspection != nil {
					if raw, err := json.Marshal(tel.Cores[0].Introspection); err == nil {
						series.Introspection = raw
					}
				}
				if resp.Interval == 0 {
					resp.Interval = tel.Interval
				}
				resp.SeriesComplete++
				present = append(present, addrs[i])
			}
		}
		resp.Series = append(resp.Series, series)
	}
	// ETag over the requested series set plus the subset with timelines:
	// for a fixed URL it changes exactly when a new timeline lands (or is
	// GC'd), so dashboards revalidate with stat-cheap 304s.
	sort.Strings(present)
	h := sha256.New()
	io.WriteString(h, "timeline-overlay-etag/v1\n")
	for _, a := range addrs {
		fmt.Fprintln(h, a)
	}
	io.WriteString(h, "--\n")
	for _, a := range present {
		fmt.Fprintln(h, a)
	}
	etag := `"` + hex.EncodeToString(h.Sum(nil)) + `"`
	resp.ETag = etag
	w.Header().Set("ETag", etag)
	w.Header().Set("Cache-Control", "public, no-cache")
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatches(inm, etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}
