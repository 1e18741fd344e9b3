package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/prefetchers"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// newHTTPServer serves an assembled *Server for tests that need direct
// access to its internals alongside the HTTP face.
func newHTTPServer(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// getAnalytics issues one GET with an optional If-None-Match, returning
// the response (body decoded into doc when 200 and doc != nil).
func getAnalytics(t *testing.T, url, inm string, doc any) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	r, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Body.Close() })
	if doc != nil && r.StatusCode == http.StatusOK {
		if err := json.NewDecoder(r.Body).Decode(doc); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// TestAnalyticsMatrixLifecycle walks the central contract: an empty
// matrix names the grid but completes no cells; completing a result
// changes the ETag and fills its cell; a matching If-None-Match answers
// 304 without a body.
func TestAnalyticsMatrixLifecycle(t *testing.T) {
	ts := newTestServer(t)
	url := ts.URL + "/analytics/matrix?traces=lbm-1274&prefetchers=Gaze"

	var before MatrixResponse
	r := getAnalytics(t, url, "", &before)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", r.StatusCode)
	}
	if r.Header.Get("Content-Type") != "application/json" {
		t.Errorf("content type = %q", r.Header.Get("Content-Type"))
	}
	etag := r.Header.Get("ETag")
	if etag == "" || etag[0] != '"' {
		t.Fatalf("ETag = %q, want quoted entity tag", etag)
	}
	if before.ETag != etag {
		t.Errorf("body etag %q != header %q", before.ETag, etag)
	}
	if before.SchemaVersion != AnalyticsSchemaVersion {
		t.Errorf("schema_version = %d", before.SchemaVersion)
	}
	if before.CellsTotal != 1 || before.CellsComplete != 0 {
		t.Fatalf("fresh server: cells = %d/%d, want 0/1", before.CellsComplete, before.CellsTotal)
	}
	if len(before.Cells) != 1 || before.Cells[0].Complete {
		t.Fatalf("fresh server cells = %+v", before.Cells)
	}
	if before.Cells[0].Address == "" || before.Cells[0].BaselineAddress == "" {
		t.Error("incomplete cell must still carry its content addresses")
	}

	// 304 for the empty document too — the ETag protocol doesn't care
	// whether anything completed yet.
	if r := getAnalytics(t, url, etag, nil); r.StatusCode != http.StatusNotModified {
		t.Fatalf("If-None-Match on empty matrix: status = %d, want 304", r.StatusCode)
	}

	// Complete the cell through the ordinary simulate path (which also
	// runs the baseline).
	var sim SimulateResponse
	if r := postJSON(t, ts.URL+"/simulate", SimulateRequest{Trace: "lbm-1274", Prefetcher: "Gaze"}, &sim); r.StatusCode != http.StatusOK {
		t.Fatalf("simulate: status = %d", r.StatusCode)
	}

	// The old tag must now miss (200 with a new tag), and the cell must
	// agree with the synchronous response.
	var after MatrixResponse
	r = getAnalytics(t, url, etag, &after)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("after completion: status = %d, want 200", r.StatusCode)
	}
	if r.Header.Get("ETag") == etag {
		t.Fatal("ETag unchanged after underlying result completed")
	}
	if after.ResultSet != before.ResultSet {
		t.Errorf("result_set changed (%q -> %q); it identifies the grid, not its completion", before.ResultSet, after.ResultSet)
	}
	if after.CellsComplete != 1 || !after.Cells[0].Complete {
		t.Fatalf("after completion: %+v", after.Cells)
	}
	cell := after.Cells[0]
	if cell.Address != sim.Address {
		t.Errorf("cell address %q != simulate address %q", cell.Address, sim.Address)
	}
	if cell.Speedup != sim.Speedup || cell.IPC != sim.IPC || cell.Accuracy != sim.Accuracy {
		t.Errorf("cell metrics diverge from /simulate: %+v vs %+v", cell, sim)
	}
	if g := after.GeomeanSpeedup["Gaze"]; g != sim.Speedup {
		t.Errorf("geomean over one cell = %v, want %v", g, sim.Speedup)
	}

	// And the new tag revalidates.
	if r := getAnalytics(t, url, r.Header.Get("ETag"), nil); r.StatusCode != http.StatusNotModified {
		t.Fatalf("new tag revalidation: status = %d, want 304", r.StatusCode)
	}
	// If-None-Match: * matches any current representation.
	if r := getAnalytics(t, url, "*", nil); r.StatusCode != http.StatusNotModified {
		t.Fatalf("If-None-Match: * status = %d, want 304", r.StatusCode)
	}
}

// TestAnalyticsETagGolden pins the change-detection contract: for a
// fixed URL the ETag is a pure function of the completed underlying
// result set — stable across requests and across server instances,
// unmoved by unrelated results, moved by grid results.
func TestAnalyticsETagGolden(t *testing.T) {
	ts := newTestServer(t)
	url := ts.URL + "/analytics/matrix?traces=lbm-1274,milc-127&prefetchers=Gaze"

	tag := func() string {
		t.Helper()
		r := getAnalytics(t, url, "", &MatrixResponse{})
		if r.StatusCode != http.StatusOK {
			t.Fatalf("status = %d", r.StatusCode)
		}
		return r.Header.Get("ETag")
	}

	empty := tag()
	if again := tag(); again != empty {
		t.Fatalf("ETag not stable with no state change: %q vs %q", empty, again)
	}

	// A deterministic engine on a second server derives the identical tag:
	// nothing request- or process-unique leaks in.
	ts2 := newTestServer(t)
	r2 := getAnalytics(t, ts2.URL+"/analytics/matrix?traces=lbm-1274,milc-127&prefetchers=Gaze", "", nil)
	if got := r2.Header.Get("ETag"); got != empty {
		t.Errorf("fresh identical server ETag %q != %q", got, empty)
	}

	// Completing a result OUTSIDE the grid must not move the tag.
	postJSON(t, ts.URL+"/simulate", SimulateRequest{Trace: "bwaves-1963", Prefetcher: "Gaze"}, nil)
	if got := tag(); got != empty {
		t.Fatalf("ETag moved on unrelated completion: %q -> %q", empty, got)
	}

	// Completing each grid result moves it, to a fresh value every time.
	seen := map[string]bool{empty: true}
	for _, trace := range []string{"lbm-1274", "milc-127"} {
		postJSON(t, ts.URL+"/simulate", SimulateRequest{Trace: trace, Prefetcher: "Gaze"}, nil)
		got := tag()
		if seen[got] {
			t.Fatalf("ETag %q repeated after completing %s", got, trace)
		}
		seen[got] = true
	}
}

// TestAnalyticsResultSetPermutationInvariant pins result-set addressing:
// the address names the *set* of underlying jobs, so any spelling of the
// same grid — reordered trace or prefetcher lists — is one result set,
// while a different grid is a different set.
func TestAnalyticsResultSetPermutationInvariant(t *testing.T) {
	ts := newTestServer(t)
	get := func(query string) MatrixResponse {
		t.Helper()
		var doc MatrixResponse
		r := getAnalytics(t, ts.URL+"/analytics/matrix?"+query, "", &doc)
		if r.StatusCode != http.StatusOK {
			t.Fatalf("%s: status = %d", query, r.StatusCode)
		}
		return doc
	}

	base := get("traces=lbm-1274,milc-127&prefetchers=Gaze,IP-stride")
	for _, query := range []string{
		"traces=milc-127,lbm-1274&prefetchers=Gaze,IP-stride",
		"traces=lbm-1274,milc-127&prefetchers=IP-stride,Gaze",
		"prefetchers=IP-stride,Gaze&traces=milc-127,lbm-1274",
		"traces=lbm-1274,milc-127,lbm-1274&prefetchers=Gaze,IP-stride", // duplicate folds
	} {
		if got := get(query); got.ResultSet != base.ResultSet {
			t.Errorf("%s: result_set %q, want %q (permutation must not matter)", query, got.ResultSet, base.ResultSet)
		}
	}
	if got := get("traces=lbm-1274&prefetchers=Gaze,IP-stride"); got.ResultSet == base.ResultSet {
		t.Error("smaller grid shares the result set address")
	}
}

// TestAnalyticsSpeedupEndpoint exercises the condensed document.
func TestAnalyticsSpeedupEndpoint(t *testing.T) {
	ts := newTestServer(t)
	var sim SimulateResponse
	postJSON(t, ts.URL+"/simulate", SimulateRequest{Trace: "lbm-1274", Prefetcher: "Gaze"}, &sim)

	var doc SpeedupResponse
	r := getAnalytics(t, ts.URL+"/analytics/speedup?traces=lbm-1274,milc-127&prefetchers=Gaze", "", &doc)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", r.StatusCode)
	}
	if doc.CellsTotal != 2 || doc.CellsComplete != 1 {
		t.Fatalf("cells = %d/%d, want 1/2", doc.CellsComplete, doc.CellsTotal)
	}
	if got := doc.Speedup["Gaze"]["lbm-1274"]; got != sim.Speedup {
		t.Errorf("speedup cell = %v, want %v", got, sim.Speedup)
	}
	if _, ok := doc.Speedup["Gaze"]["milc-127"]; ok {
		t.Error("incomplete cell present in speedup matrix")
	}
	if g := doc.GeomeanSpeedup["Gaze"]; g != sim.Speedup {
		t.Errorf("geomean = %v, want %v", g, sim.Speedup)
	}
	if r := getAnalytics(t, ts.URL+"/analytics/speedup?traces=lbm-1274,milc-127&prefetchers=Gaze", r.Header.Get("ETag"), nil); r.StatusCode != http.StatusNotModified {
		t.Fatalf("revalidation: status = %d, want 304", r.StatusCode)
	}
}

// TestAnalyticsMatrixSensitivity runs a two-point axis and checks the
// Fig 16-style aggregation.
func TestAnalyticsMatrixSensitivity(t *testing.T) {
	ts := newTestServer(t)
	url := ts.URL + "/analytics/matrix?traces=lbm-1274&prefetchers=Gaze&param=llc_mb_per_core&values=1,2"

	var doc MatrixResponse
	if r := getAnalytics(t, url, "", &doc); r.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", r.StatusCode)
	}
	if doc.CellsTotal != 2 || len(doc.Points) != 2 {
		t.Fatalf("cells_total = %d points = %v", doc.CellsTotal, doc.Points)
	}

	// Complete the llc=1 point via a sweep over the same axis.
	if r := postJSON(t, ts.URL+"/sweep", SweepRequest{
		Traces: []string{"lbm-1274"}, Prefetchers: []string{"Gaze"},
		Axis: &SweepAxis{Param: "llc_mb_per_core", Values: []float64{1}},
	}, nil); r.StatusCode != http.StatusOK {
		t.Fatalf("sweep: status = %d", r.StatusCode)
	}
	if r := getAnalytics(t, url, "", &doc); r.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", r.StatusCode)
	}
	if doc.CellsComplete != 1 {
		t.Fatalf("cells_complete = %d, want 1", doc.CellsComplete)
	}
	if len(doc.Sensitivity) != 1 || doc.Sensitivity[0].Value != 1 || doc.Sensitivity[0].Param != "llc_mb_per_core" {
		t.Fatalf("sensitivity = %+v", doc.Sensitivity)
	}
	if doc.GeomeanSpeedup != nil {
		t.Error("axis document must report sensitivity, not flat geomeans")
	}
}

func TestAnalyticsValidation(t *testing.T) {
	ts := newTestServer(t)
	cases := []struct {
		path string
		want int
	}{
		{"/analytics/matrix?traces=lbm-1274&bogus=1", http.StatusBadRequest}, // unknown query param
		{"/analytics/matrix?traces=no-such-trace", http.StatusBadRequest},    // unknown trace
		{"/analytics/matrix?traces=lbm-1274&prefetchers=nope", http.StatusBadRequest},
		{"/analytics/matrix?traces=lbm-1274&values=1,2", http.StatusBadRequest},            // values without param
		{"/analytics/matrix?traces=lbm-1274&param=llc_mb_per_core", http.StatusBadRequest}, // param without values
		{"/analytics/matrix?traces=lbm-1274&param=llc_mb_per_core&values=abc", http.StatusBadRequest},
		{"/analytics/matrix?traces=lbm-1274&param=no_such_knob&values=1", http.StatusBadRequest},
		{"/analytics/matrix?suite=no-such-suite", http.StatusBadRequest},
		{"/analytics/speedup?traces=lbm-1274&param=llc_mb_per_core&values=1", http.StatusBadRequest}, // axis on speedup
		{"/analytics/matrix?traces=lbm-1274", http.StatusOK},                                         // default prefetcher roster
	}
	for _, tc := range cases {
		r, err := http.Get(ts.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		var body struct {
			Error string `json:"error"`
		}
		json.NewDecoder(r.Body).Decode(&body) //nolint:errcheck
		r.Body.Close()
		if r.StatusCode != tc.want {
			t.Errorf("%s: status = %d, want %d", tc.path, r.StatusCode, tc.want)
		}
		if tc.want != http.StatusOK && body.Error == "" {
			t.Errorf("%s: error body missing", tc.path)
		}
	}
}

// TestAnalyticsCacheConcurrent hammers the analytics cache from many
// goroutines while simulations complete underneath it — run under -race
// this is the regression net for the cache's locking. Every response
// must be internally coherent: the body's etag equals the header's, and
// a complete cell count within the document's own bounds.
func TestAnalyticsCacheConcurrent(t *testing.T) {
	ts := newTestServer(t)
	traces := []string{"lbm-1274", "milc-127", "bwaves-1963"}
	url := ts.URL + "/analytics/matrix?traces=lbm-1274,milc-127,bwaves-1963&prefetchers=Gaze"

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for _, tr := range traces {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(SimulateRequest{Trace: tr, Prefetcher: "Gaze"})
			r, err := http.Post(ts.URL+"/simulate", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			r.Body.Close()
			if r.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("simulate %s: status %d", tr, r.StatusCode)
			}
		}()
	}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				r, err := http.Get(url)
				if err != nil {
					errs <- err
					return
				}
				var doc MatrixResponse
				err = json.NewDecoder(r.Body).Decode(&doc)
				r.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if doc.ETag != r.Header.Get("ETag") {
					errs <- fmt.Errorf("body etag %q != header %q", doc.ETag, r.Header.Get("ETag"))
					return
				}
				if doc.CellsComplete < 0 || doc.CellsComplete > doc.CellsTotal {
					errs <- fmt.Errorf("cells %d/%d out of bounds", doc.CellsComplete, doc.CellsTotal)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Steady state: everything complete, ETag settled, document cached.
	var doc MatrixResponse
	r := getAnalytics(t, url, "", &doc)
	if doc.CellsComplete != len(traces) {
		t.Fatalf("cells_complete = %d, want %d", doc.CellsComplete, len(traces))
	}
	if rr := getAnalytics(t, url, r.Header.Get("ETag"), nil); rr.StatusCode != http.StatusNotModified {
		t.Fatalf("settled revalidation: %d, want 304", rr.StatusCode)
	}
}

// TestAnalyticsCacheLRUBound fills the document cache past its cap and
// checks the bound holds.
func TestAnalyticsCacheLRUBound(t *testing.T) {
	var c analyticsCache
	for i := 0; i < maxAnalyticsEntries+32; i++ {
		c.put(fmt.Sprintf("key-%d", i), nil, `"tag"`, []byte("{}"), nil)
	}
	if n := c.counters().Entries; n != maxAnalyticsEntries {
		t.Fatalf("entries = %d, want cap %d", n, maxAnalyticsEntries)
	}
	// The most recent keys survive LRU eviction.
	if _, ok := c.get(fmt.Sprintf("key-%d", maxAnalyticsEntries+31), `"tag"`); !ok {
		t.Error("most recent entry evicted")
	}
	// Stale-etag lookups miss even when the key is resident.
	if _, ok := c.get(fmt.Sprintf("key-%d", maxAnalyticsEntries+31), `"other"`); ok {
		t.Error("etag mismatch served stale document")
	}
}

// TestAnalyticsCacheHoldsGCRefs checks the cache's ref source reports
// the addresses backing cached documents, and that a server-side GC with
// those refs spares them: serve an analytics document, then collect with
// MaxAge 0 — the grid's completed results must survive while an
// unrelated completed result is reclaimed.
func TestAnalyticsCacheHoldsGCRefs(t *testing.T) {
	store, err := engine.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := New(engine.New(engine.Options{Scale: tiny, Store: store}))
	hs := newHTTPServer(t, srv)

	var inGrid, unrelated SimulateResponse
	postJSON(t, hs.URL+"/simulate", SimulateRequest{Trace: "lbm-1274", Prefetcher: "Gaze"}, &inGrid)
	postJSON(t, hs.URL+"/simulate", SimulateRequest{Trace: "milc-127", Prefetcher: "Gaze"}, &unrelated)

	var doc MatrixResponse
	if r := getAnalytics(t, hs.URL+"/analytics/matrix?traces=lbm-1274&prefetchers=Gaze", "", &doc); r.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", r.StatusCode)
	}
	if doc.CellsComplete != 1 {
		t.Fatalf("cells_complete = %d, want 1", doc.CellsComplete)
	}

	refs := srv.analytics.liveAddresses()
	if !refs[inGrid.Address] {
		t.Fatalf("cache refs %v missing served address %s", refs, inGrid.Address)
	}

	stats, err := srv.RunGC(0)
	if err != nil {
		t.Fatal(err)
	}
	onDisk := make(map[string]bool)
	for _, e := range store.Entries() {
		onDisk[e.Address] = true
	}
	if !onDisk[inGrid.Address] {
		t.Error("GC deleted a result backing a cached analytics document")
	}
	if onDisk[unrelated.Address] {
		t.Error("GC kept an unreferenced result at MaxAge 0")
	}
	if stats.KeptReferenced == 0 || stats.Deleted == 0 {
		t.Errorf("gc stats = %+v, want both kept-referenced and deleted entries", stats)
	}
}

// TestAnalyticsEachSpellingOwnDocument: two spellings of one grid share
// the result set and the ETag, but each URL is served the document a cold
// server builds for it — its own trace and prefetcher order — never the
// document cached for the other spelling.
func TestAnalyticsEachSpellingOwnDocument(t *testing.T) {
	ts := newTestServer(t)
	get := func(query string) (MatrixResponse, string) {
		t.Helper()
		var doc MatrixResponse
		r := getAnalytics(t, ts.URL+"/analytics/matrix?"+query, "", &doc)
		if r.StatusCode != http.StatusOK {
			t.Fatalf("%s: status = %d", query, r.StatusCode)
		}
		return doc, r.Header.Get("ETag")
	}
	a, tagA := get("traces=lbm-1274,milc-127&prefetchers=Gaze,IP-stride")
	b, tagB := get("traces=milc-127,lbm-1274&prefetchers=IP-stride,Gaze")
	if a.ResultSet != b.ResultSet || tagA != tagB {
		t.Fatalf("spellings of one grid: result_set %s/%s etag %s/%s, want equal", a.ResultSet, b.ResultSet, tagA, tagB)
	}
	for _, c := range []struct {
		name      string
		got, want []string
	}{
		{"first traces", a.Traces, []string{"lbm-1274", "milc-127"}},
		{"first prefetchers", a.Prefetchers, []string{"Gaze", "IP-stride"}},
		{"second traces", b.Traces, []string{"milc-127", "lbm-1274"}},
		{"second prefetchers", b.Prefetchers, []string{"IP-stride", "Gaze"}},
	} {
		if fmt.Sprint(c.got) != fmt.Sprint(c.want) {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
	if b.Cells[0].Trace != "milc-127" || b.Cells[0].Prefetcher != "IP-stride" {
		t.Errorf("second spelling's first cell = %s/%s, want milc-127/IP-stride", b.Cells[0].Trace, b.Cells[0].Prefetcher)
	}
}

// TestAnalyticsDeletedTraceAnswers400: a URL naming an ingested trace
// answers 200 while the trace is registered and, once it is deleted, 400
// "unknown trace" — as a cold server does — even though the URL's
// compiled view is cached.
func TestAnalyticsDeletedTraceAnswers400(t *testing.T) {
	ts, _ := newTraceTestServer(t, nil)
	_, payload := externalTrace(t, "lbm-1274", 2_000, trace.FormatChampSimGz)
	up, status := uploadTrace(t, ts, payload)
	if status != http.StatusCreated {
		t.Fatalf("upload status = %d", status)
	}
	url := ts.URL + "/analytics/matrix?traces=" + up.Name + "&prefetchers=Gaze"
	if r := getAnalytics(t, url, "", &MatrixResponse{}); r.StatusCode != http.StatusOK {
		t.Fatalf("before delete: status = %d, want 200", r.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/traces/"+up.Address, nil)
	r, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status = %d", r.StatusCode)
	}
	r = getAnalytics(t, url, "", nil)
	var body struct {
		Error string `json:"error"`
	}
	json.NewDecoder(r.Body).Decode(&body) //nolint:errcheck
	if r.StatusCode != http.StatusBadRequest || !strings.Contains(body.Error, "unknown trace") {
		t.Fatalf("after delete: status %d error %q, want 400 unknown trace", r.StatusCode, body.Error)
	}
}

// TestAnalyticsSeesOtherProcessResults pins the store stat: a second
// engine on the same store directory (another gazesim, experiments or
// gazeserve process) completes a cell, and the next request's ETag moves
// and counts the cell complete although this engine's memo never saw it.
func TestAnalyticsSeesOtherProcessResults(t *testing.T) {
	dir := t.TempDir()
	open := func() *engine.Engine {
		st, err := engine.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		return engine.New(engine.Options{Scale: tiny, Store: st})
	}
	ts := newHTTPServer(t, New(open()))
	url := ts.URL + "/analytics/matrix?traces=lbm-1274&prefetchers=Gaze"
	var before MatrixResponse
	r := getAnalytics(t, url, "", &before)
	tag := r.Header.Get("ETag")
	if before.CellsComplete != 0 {
		t.Fatalf("fresh store: cells_complete = %d", before.CellsComplete)
	}

	other := open()
	job := engine.Job{Traces: []string{"lbm-1274"}, L1: []string{"Gaze"}}
	other.RunAll([]engine.Job{job.Baseline(), job})

	var after MatrixResponse
	r = getAnalytics(t, url, tag, &after)
	if r.StatusCode != http.StatusOK || r.Header.Get("ETag") == tag {
		t.Fatalf("after another engine completed the cell: status %d, etag moved %v", r.StatusCode, r.Header.Get("ETag") != tag)
	}
	if after.CellsComplete != 1 || !after.Cells[0].Complete {
		t.Fatalf("cells = %+v, want the cell complete", after.Cells)
	}
}

// TestAnalyticsRevalidationAllocs: a warmed 304 over a paper-sized grid
// (102 traces x 9 prefetchers + baselines = 1020 cells) probes the cells
// through the view's completion probe. Re-encoding or re-hashing the jobs
// per request costs about 27 allocations a cell, and a stat per cell a
// handful; the probe's memo pass costs none, and it stats one directory
// per pending store shard, about a quarter of the cells.
func TestAnalyticsRevalidationAllocs(t *testing.T) {
	dir := t.TempDir()
	st, err := engine.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Options{Scale: tiny, Store: st})
	srv := New(eng)

	var traces []string
	for _, info := range workload.Catalogue()[:102] {
		traces = append(traces, info.Name)
	}
	pfs := prefetchers.EvaluatedNames()
	// Some cells complete in this engine's memo, some only in the store
	// (written by another engine), the rest nowhere: each probe path runs.
	other := engine.New(engine.Options{Scale: tiny, Store: st})
	for i, tr := range traces[:20] {
		key := engine.Job{Traces: []string{tr}, L1: []string{pfs[i%len(pfs)]}}.CanonicalJSON(tiny)
		if i%2 == 0 {
			eng.Adopt(key, sim.Result{})
		} else {
			other.Adopt(key, sim.Result{})
		}
	}

	req := httptest.NewRequest(http.MethodGet,
		"/analytics/matrix?traces="+strings.Join(traces, ",")+"&prefetchers="+strings.Join(pfs, ","), nil)
	rec := httptest.NewRecorder()
	srv.handleAnalyticsMatrix(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("warm-up: status %d: %s", rec.Code, rec.Body)
	}
	var doc MatrixResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	cells := len(traces) * (len(pfs) + 1)
	if doc.CellsTotal != len(traces)*len(pfs) {
		t.Fatalf("cells_total = %d", doc.CellsTotal)
	}
	req.Header.Set("If-None-Match", rec.Header().Get("ETag"))

	allocs := testing.AllocsPerRun(5, func() {
		rec := httptest.NewRecorder()
		srv.handleAnalyticsMatrix(rec, req)
		if rec.Code != http.StatusNotModified {
			t.Fatalf("revalidation: status %d, want 304", rec.Code)
		}
	})
	if perCell := allocs / float64(cells); perCell > 1 {
		t.Errorf("304 revalidation: %.0f allocations for %d cells (%.2f a cell), want at most 1 a cell", allocs, cells, perCell)
	}
	t.Logf("304 revalidation: %.0f allocations for %d cells", allocs, cells)
}
