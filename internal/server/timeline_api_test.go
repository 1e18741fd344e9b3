package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/jobs"
	"repro/internal/sim"
)

// newTimelineTestServer wires an engine with interval telemetry armed
// plus a jobs manager, the way gazeserve -telemetry-interval does.
func newTimelineTestServer(t *testing.T) (*httptest.Server, *engine.Engine) {
	t.Helper()
	eng := engine.New(engine.Options{Scale: tiny, Workers: 1, TelemetryInterval: 5_000})
	mgr, err := jobs.Open(jobs.Options{Engine: eng, Compile: Compiler(eng), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(eng).AttachJobs(mgr).Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		mgr.Shutdown(ctx) //nolint:errcheck
	})
	return ts, eng
}

// overlayFor fetches the /analytics/timeline overlay for one trace and
// prefetcher list.
func overlayFor(t *testing.T, ts *httptest.Server, query string) (TimelineOverlayResponse, *http.Response) {
	t.Helper()
	r, err := http.Get(ts.URL + "/analytics/timeline?" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var resp TimelineOverlayResponse
	if r.StatusCode == http.StatusOK {
		if err := json.NewDecoder(r.Body).Decode(&resp); err != nil {
			t.Fatal(err)
		}
	}
	return resp, r
}

func TestResultTimelineDocumentJSONAndCSV(t *testing.T) {
	ts, _ := newTimelineTestServer(t)

	// Before any run the overlay reports the series as incomplete.
	before, r := overlayFor(t, ts, "trace=lbm-1274&prefetchers=Gaze")
	if r.StatusCode != http.StatusOK {
		t.Fatalf("overlay status = %d", r.StatusCode)
	}
	if before.SeriesTotal != 1 || before.SeriesComplete != 0 || len(before.Series) != 1 {
		t.Fatalf("pre-run overlay = %+v", before)
	}
	addr := before.Series[0].Address
	if len(addr) != 64 {
		t.Fatalf("series address %q is not a content address", addr)
	}

	postJSON(t, ts.URL+"/simulate", SimulateRequest{Trace: "lbm-1274", Prefetcher: "Gaze"}, nil)

	// JSON document: the canonical persisted bytes, strong-ETag'd.
	r, err := http.Get(ts.URL + "/results/" + addr + "/timeline")
	if err != nil {
		t.Fatal(err)
	}
	doc, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("timeline status = %d: %s", r.StatusCode, doc)
	}
	if ct := r.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("content type = %q", ct)
	}
	etag := r.Header.Get("ETag")
	if etag == "" || !strings.HasPrefix(etag, `"`) {
		t.Errorf("ETag = %q, want a strong quoted tag", etag)
	}
	var rec struct {
		Version   int             `json:"version"`
		Key       string          `json:"key"`
		Telemetry json.RawMessage `json:"telemetry"`
	}
	if err := json.Unmarshal(doc, &rec); err != nil {
		t.Fatalf("document is not JSON: %v", err)
	}
	if rec.Version != engine.TelemetrySchemaVersion || rec.Key == "" || len(rec.Telemetry) == 0 {
		t.Errorf("document shape: version %d key %q", rec.Version, rec.Key)
	}
	tel, err := engine.DecodeTelemetry(doc)
	if err != nil || len(tel.Cores) != 1 || len(tel.Cores[0].Samples) == 0 {
		t.Fatalf("decoded timeline empty: %v", err)
	}

	// Conditional revalidation answers 304 with no body.
	req, _ := http.NewRequest("GET", ts.URL+"/results/"+addr+"/timeline", nil)
	req.Header.Set("If-None-Match", etag)
	r, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotModified {
		t.Errorf("revalidation status = %d, want 304", r.StatusCode)
	}

	// CSV rendering: header plus one row per sample, a distinct ETag.
	r, err = http.Get(ts.URL + "/results/" + addr + "/timeline?format=csv")
	if err != nil {
		t.Fatal(err)
	}
	csv, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("csv status = %d", r.StatusCode)
	}
	if ct := r.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/csv") {
		t.Errorf("csv content type = %q", ct)
	}
	if r.Header.Get("ETag") == etag {
		t.Error("csv and json representations share an ETag")
	}
	lines := strings.Split(strings.TrimSpace(string(csv)), "\n")
	if lines[0]+"\n" != timelineCSVHeader {
		t.Errorf("csv header = %q", lines[0])
	}
	if got, want := len(lines)-1, len(tel.Cores[0].Samples); got != want {
		t.Errorf("csv rows = %d, want %d (one per sample)", got, want)
	}

	// The overlay now reports the series complete, with samples and the
	// Gaze introspection document, under a changed ETag.
	after, _ := overlayFor(t, ts, "trace=lbm-1274&prefetchers=Gaze")
	if after.SeriesComplete != 1 || !after.Series[0].Complete {
		t.Fatalf("post-run overlay = %+v", after)
	}
	if after.Interval == 0 || len(after.Series[0].Samples) == 0 {
		t.Errorf("overlay series empty: interval %d, %d samples", after.Interval, len(after.Series[0].Samples))
	}
	if len(after.Series[0].Introspection) == 0 {
		t.Error("Gaze series carries no introspection document")
	}
	if after.ETag == before.ETag {
		t.Error("overlay ETag unchanged after a timeline landed")
	}

	// The landed-overlay ETag revalidates.
	req, _ = http.NewRequest("GET", ts.URL+"/analytics/timeline?trace=lbm-1274&prefetchers=Gaze", nil)
	req.Header.Set("If-None-Match", after.ETag)
	r, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotModified {
		t.Errorf("overlay revalidation status = %d, want 304", r.StatusCode)
	}
}

// TestTimelineOtherSchemaVersion: a sidecar written by a binary with
// another telemetry schema (a store shared across versions) is not
// served as this version's document: the CSV and JSON routes answer the
// same error, and the overlay reports the series incomplete.
func TestTimelineOtherSchemaVersion(t *testing.T) {
	store, err := engine.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Options{Scale: tiny, Store: store, TelemetryInterval: 5_000})
	ts := httptest.NewServer(New(eng).Handler())
	defer ts.Close()

	job := engine.Job{Traces: []string{"lbm-1274"}, L1: []string{"Gaze"}}
	key := job.CanonicalJSON(tiny)
	doc, err := engine.ExportTelemetry(key, &sim.Telemetry{Interval: 5_000, Cores: []sim.CoreTelemetry{{
		Prefetcher: "Gaze", Samples: []sim.IntervalSample{{Start: 0, End: 5_000, IPC: 0.5}},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	v1 := fmt.Sprintf(`"version": %d,`, engine.TelemetrySchemaVersion)
	v2 := fmt.Sprintf(`"version": %d,`, engine.TelemetrySchemaVersion+1)
	if !bytes.Contains(doc, []byte(v1)) {
		t.Fatalf("document does not carry %s", v1)
	}
	if err := store.PutTelemetry(key, bytes.Replace(doc, []byte(v1), []byte(v2), 1)); err != nil {
		t.Fatal(err)
	}

	addr := job.ContentAddress(tiny)
	r, err := http.Get(ts.URL + "/results/" + addr + "/timeline?format=csv")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusInternalServerError || strings.Contains(string(body), "core,prefetcher") {
		t.Errorf("csv of a v%d sidecar = %d %q, want a 500 error and no rows",
			engine.TelemetrySchemaVersion+1, r.StatusCode, body)
	}
	r, err = http.Get(ts.URL + "/results/" + addr + "/timeline")
	if err != nil {
		t.Fatal(err)
	}
	jsonBody, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusInternalServerError || !bytes.Equal(jsonBody, body) {
		t.Errorf("json of a v%d sidecar = %d %q, want the csv route's 500 %q",
			engine.TelemetrySchemaVersion+1, r.StatusCode, jsonBody, body)
	}

	overlay, r := overlayFor(t, ts, "trace=lbm-1274&prefetchers=Gaze")
	if r.StatusCode != http.StatusOK {
		t.Fatalf("overlay status = %d", r.StatusCode)
	}
	if overlay.SeriesComplete != 0 || len(overlay.Series) != 1 || overlay.Series[0].Complete ||
		len(overlay.Series[0].Samples) != 0 {
		t.Errorf("overlay over a v%d sidecar = %+v, want the series incomplete",
			engine.TelemetrySchemaVersion+1, overlay)
	}
}

// TestJobLinksCompletedTimelines: GET /jobs/{id} on a succeeded job
// links the timeline documents its runs persisted, and every link
// resolves.
func TestJobLinksCompletedTimelines(t *testing.T) {
	ts, _ := newTimelineTestServer(t)
	sweep := SweepRequest{Traces: []string{"lbm-1274"}, Prefetchers: []string{"IP-stride", "Gaze"}}
	st, r := submitJob(t, ts, JobSubmitRequest{Type: "sweep", Request: mustRaw(t, sweep)})
	if r.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", r.StatusCode)
	}
	final := waitJobState(t, ts, st.ID, string(jobs.Succeeded))
	if len(final.Timelines) == 0 {
		t.Fatal("succeeded job links no timelines")
	}
	for _, link := range final.Timelines {
		if !strings.HasPrefix(link, "/results/") || !strings.HasSuffix(link, "/timeline") {
			t.Errorf("malformed timeline link %q", link)
			continue
		}
		resp, err := http.Get(ts.URL + link)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("linked timeline %s = %d", link, resp.StatusCode)
		}
	}
}

// TestTimelineNeverTorn is the -race acceptance check: while a job is
// in flight, concurrent timeline reads must only ever observe
// 404 (not started), 409 (computing), or the complete document — never
// torn or partial bytes. The atomic sidecar write plus save-before-
// commit ordering is what makes this hold.
func TestTimelineNeverTorn(t *testing.T) {
	eng := engine.New(engine.Options{
		Scale:             engine.Scale{TracesPerSuite: 1, TraceLen: 10_000, Warmup: 5_000, Sim: 100_000},
		TelemetryInterval: 5_000,
	})
	ts := httptest.NewServer(New(eng).Handler())
	t.Cleanup(ts.Close)

	job := engine.Job{Traces: []string{"lbm-1274"}, L1: []string{"Gaze"}}
	if err := job.Validate(); err != nil {
		t.Fatal(err)
	}
	addr := job.ContentAddress(eng.Scale())

	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := eng.RunContext(context.Background(), job); err != nil {
			t.Error(err)
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				r, err := http.Get(ts.URL + "/results/" + addr + "/timeline")
				if err != nil {
					t.Error(err)
					return
				}
				body, _ := io.ReadAll(r.Body)
				r.Body.Close()
				switch r.StatusCode {
				case http.StatusNotFound, http.StatusConflict:
					// Acceptable pre-completion answers.
				case http.StatusOK:
					if _, _, err := engine.ImportTelemetry(addr, body); err != nil {
						t.Errorf("served timeline does not verify: %v", err)
						return
					}
				default:
					t.Errorf("unexpected status %d: %s", r.StatusCode, body)
					return
				}
			}
		}()
	}
	<-done
	wg.Wait()

	// After the run, the document must be complete and verified.
	r, err := http.Get(ts.URL + "/results/" + addr + "/timeline")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("post-run timeline = %d: %s", r.StatusCode, body)
	}
	if _, _, err := engine.ImportTelemetry(addr, body); err != nil {
		t.Fatalf("final timeline does not verify: %v", err)
	}
}
