// End-to-end cluster tests: a real coordinator HTTP server (the full
// internal/server handler with jobs dispatching through the
// coordinator) driven by real Workers over the wire. This is the
// acceptance criterion executed as a test: a sweep across two workers —
// one of which dies mid-flight — completes with store entries and an
// analytics ETag byte-identical to a pure single-node run.
package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/traceset"
	"repro/internal/workload"
)

var tiny = engine.Scale{TracesPerSuite: 1, TraceLen: 10_000, Warmup: 5_000, Sim: 20_000}

// coordNode is one assembled coordinator-mode server.
type coordNode struct {
	ts    *httptest.Server
	coord *cluster.Coordinator
	dir   string // result-store directory
}

// newCoordNode builds a full coordinator: engine + store, jobs manager
// dispatching through the coordinator's Execute, HTTP handler with
// cluster routes mounted. A non-nil tracer is threaded through every
// layer the way gazeserve wires it.
func newCoordNode(t *testing.T, reg *traceset.Registry, tracer *obs.Tracer) *coordNode {
	t.Helper()
	dir := t.TempDir()
	store, err := engine.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Options{Scale: tiny, Store: store})
	coord := cluster.NewCoordinator(cluster.CoordinatorOptions{
		Engine:   eng,
		LeaseTTL: 30 * time.Second, // worker loss is exercised via deregister, not wall-clock expiry
		// One unit per lease call spreads a small sweep across workers
		// instead of letting the first poller swallow it whole.
		MaxLeaseBatch: 1,
		Tracer:        tracer,
	})
	mgr, err := jobs.Open(jobs.Options{
		Engine:  eng,
		Compile: server.Compiler(eng),
		Workers: 2,
		Execute: coord.Execute,
		Tracer:  tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Shutdown(context.Background()) }) //nolint:errcheck
	srv := server.New(eng).AttachJobs(mgr).AttachCluster(coord)
	if tracer != nil {
		srv.AttachTracer(tracer)
	}
	if reg != nil {
		srv.AttachTraces(reg)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return &coordNode{ts: ts, coord: coord, dir: dir}
}

// newLocalNode builds the single-node control: same engine scale, own
// store, jobs execute locally.
func newLocalNode(t *testing.T) *coordNode {
	t.Helper()
	dir := t.TempDir()
	store, err := engine.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Options{Scale: tiny, Store: store})
	mgr, err := jobs.Open(jobs.Options{Engine: eng, Compile: server.Compiler(eng), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Shutdown(context.Background()) }) //nolint:errcheck
	ts := httptest.NewServer(server.New(eng).AttachJobs(mgr).Handler())
	t.Cleanup(ts.Close)
	return &coordNode{ts: ts, dir: dir}
}

// startWorker boots a Worker against the coordinator's URL with its own
// engine (and optionally its own trace registry and HTTP client),
// returning its cancel and counters.
func startWorker(t *testing.T, url, name string, reg *traceset.Registry, hc *http.Client) (*cluster.Worker, context.CancelFunc, <-chan error) {
	t.Helper()
	w := cluster.NewWorker(cluster.WorkerOptions{
		Client:       cluster.NewClient(url, cluster.ClientOptions{HTTPClient: hc, Backoff: 5 * time.Millisecond}),
		Engine:       engine.New(engine.Options{Scale: tiny}),
		Registry:     reg,
		Concurrency:  1,
		Name:         name,
		PollInterval: 10 * time.Millisecond,
		Logger:       slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error)
	go func() {
		done <- w.Run(ctx)
		close(done)
	}()
	t.Cleanup(func() {
		cancel()
		for range done { // drain whether or not the test already waited
		}
	})
	return w, cancel, done
}

func postJSON(t *testing.T, url, body string, out any) int {
	t.Helper()
	r, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if out != nil {
		if err := json.NewDecoder(r.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s response: %v", url, err)
		}
	}
	return r.StatusCode
}

// waitJob polls GET /jobs/{id} until it reaches a terminal state.
func waitJob(t *testing.T, base, id string) string {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("job %s did not finish", id)
		}
		r, err := http.Get(base + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		err = json.NewDecoder(r.Body).Decode(&st)
		r.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch st.State {
		case "succeeded":
			return st.State
		case "failed", "canceled", "interrupted":
			t.Fatalf("job %s ended %s: %s", id, st.State, st.Error)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// storeSnapshot maps relative path → contents for every .json record
// under a store directory.
func storeSnapshot(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".json" {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		out[rel] = string(data)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func etagOf(t *testing.T, base, query string) string {
	t.Helper()
	r, err := http.Get(base + "/analytics/speedup?" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("analytics: status %d", r.StatusCode)
	}
	etag := r.Header.Get("ETag")
	if etag == "" {
		t.Fatal("analytics response has no ETag")
	}
	return etag
}

// gatedTransport paces one worker of the worker-loss scenario. Each
// lease request first waits on the channel wait returns (nil: none) or
// on its own context; onUpload runs after each accepted result upload.
type gatedTransport struct {
	wait     func() <-chan struct{}
	onUpload func()
}

func (g gatedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if ch := g.wait(); ch != nil && req.URL.Path == cluster.PathLease {
		select {
		case <-ch:
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err == nil && resp.StatusCode < 300 && req.Method == http.MethodPut &&
		strings.HasPrefix(req.URL.Path, cluster.PathResults) && g.onUpload != nil {
		// Read the body before signalling: a kill the signal triggers must
		// not cancel the read and turn an accepted upload into a failure.
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return nil, rerr
		}
		resp.Body = io.NopCloser(bytes.NewReader(body))
		g.onUpload()
	}
	return resp, err
}

// TestClusterSweepSurvivesWorkerLoss runs the flagship scenario: an
// async sweep on a coordinator with two real workers over HTTP, one
// worker killed after it completes its first unit. The sweep must still
// succeed, and both the result-store bytes and the analytics ETag must
// equal a single-node run of the same sweep.
func TestClusterSweepSurvivesWorkerLoss(t *testing.T) {
	node := newCoordNode(t, nil, nil)

	// The doomed worker leases alone until its first result upload is
	// accepted; its next lease then waits until the worker is killed, so
	// it completes exactly one unit. The survivor's leases wait for that
	// upload and then run the rest of the sweep.
	uploaded, never := make(chan struct{}), make(chan struct{})
	var once sync.Once
	doomed := gatedTransport{
		wait: func() <-chan struct{} {
			select {
			case <-uploaded:
				return never
			default:
				return nil
			}
		},
		onUpload: func() { once.Do(func() { close(uploaded) }) },
	}
	survivor := gatedTransport{wait: func() <-chan struct{} { return uploaded }}
	w0, cancel0, errc0 := startWorker(t, node.ts.URL, "doomed", nil, &http.Client{Transport: doomed})
	startWorker(t, node.ts.URL, "survivor", nil, &http.Client{Transport: survivor})

	const sweepBody = `{"type":"sweep","request":{"traces":["lbm-1274","bwaves-1963"],"prefetchers":["Gaze"]}}`
	var submitted struct {
		ID string `json:"id"`
	}
	if code := postJSON(t, node.ts.URL+"/jobs", sweepBody, &submitted); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}

	select {
	case <-uploaded:
	case <-time.After(2 * time.Minute):
		t.Fatal("worker 0 never uploaded a result")
	}
	cancel0()
	<-errc0
	if n := w0.Counters().Completed; n != 1 {
		t.Fatalf("worker 0 completed %d units before it was killed, want 1", n)
	}
	waitJob(t, node.ts.URL, submitted.ID)

	// The killed worker deregistered (graceful cancel) or its leases
	// expired; either way the survivor finished the sweep.
	cts := node.coord.Counters()
	if cts.Results == 0 {
		t.Fatalf("coordinator counters = %+v, want uploaded results", cts)
	}
	if r, err := http.Get(node.ts.URL + "/jobs/" + submitted.ID + "/result"); err != nil || r.StatusCode != http.StatusOK {
		t.Fatalf("result fetch: %v / %d", err, r.StatusCode)
	} else {
		r.Body.Close()
	}

	// Single-node control run of the identical sweep.
	local := newLocalNode(t)
	var localJob struct {
		ID string `json:"id"`
	}
	if code := postJSON(t, local.ts.URL+"/jobs", sweepBody, &localJob); code != http.StatusAccepted {
		t.Fatalf("local submit: status %d", code)
	}
	waitJob(t, local.ts.URL, localJob.ID)

	clusterStore, localStore := storeSnapshot(t, node.dir), storeSnapshot(t, local.dir)
	if len(clusterStore) == 0 {
		t.Fatal("cluster run committed no store entries")
	}
	if len(clusterStore) != len(localStore) {
		t.Fatalf("store entry count: cluster %d, local %d", len(clusterStore), len(localStore))
	}
	for rel, data := range localStore {
		if clusterStore[rel] != data {
			t.Errorf("store entry %s differs between cluster and single-node runs", rel)
		}
	}

	const analyticsQuery = "traces=lbm-1274,bwaves-1963&prefetchers=Gaze"
	if ct, lt := etagOf(t, node.ts.URL, analyticsQuery), etagOf(t, local.ts.URL, analyticsQuery); ct != lt {
		t.Errorf("analytics ETag: cluster %s, local %s", ct, lt)
	}
}

// TestClusterDuplicateUploadOverHTTP hammers PUT /cluster/results with
// identical documents through the real handler stack: one "completed",
// the rest "duplicate", never an error.
func TestClusterDuplicateUploadOverHTTP(t *testing.T) {
	node := newCoordNode(t, nil, nil)
	client := cluster.NewClient(node.ts.URL, cluster.ClientOptions{})
	ctx := context.Background()

	resp, err := client.Register(ctx, cluster.RegisterRequest{
		Concurrency: 1, Scale: tiny, StoreSchemaVersion: engine.StoreSchemaVersion,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Enqueue units via a submitted simulate job (it compiles to the run
	// plus its baseline), then lease them all — every unit must settle or
	// the job (and the manager's shutdown) would wait forever.
	var submitted struct {
		ID string `json:"id"`
	}
	postJSON(t, node.ts.URL+"/jobs",
		`{"type":"simulate","request":{"trace":"lbm-1274","prefetcher":"Gaze"}}`, &submitted)
	var units []cluster.WorkUnit
	deadline := time.Now().Add(5 * time.Second)
	for len(units) == 0 || node.coord.Counters().UnitsPending > 0 {
		if time.Now().After(deadline) {
			t.Fatal("no units to lease")
		}
		lease, err := client.Lease(ctx, cluster.LeaseRequest{WorkerID: resp.WorkerID, Max: 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(lease.Units) == 0 {
			time.Sleep(5 * time.Millisecond)
			continue
		}
		units = append(units, lease.Units...)
	}
	eng := engine.New(engine.Options{Scale: tiny})

	// Settle every sibling unit normally so the job completes; the hammer
	// targets the first unit only.
	for _, sibling := range units[1:] {
		doc, err := engine.ExportResult(sibling.Job.CanonicalJSON(tiny), eng.Run(sibling.Job))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := client.UploadResult(ctx, sibling.Address, doc); err != nil {
			t.Fatal(err)
		}
	}
	u := units[0]
	doc, err := engine.ExportResult(u.Job.CanonicalJSON(tiny), eng.Run(u.Job))
	if err != nil {
		t.Fatal(err)
	}

	statuses := make(chan string, 8)
	for i := 0; i < cap(statuses); i++ {
		go func() {
			up, err := client.UploadResult(ctx, u.Address, doc)
			if err != nil {
				t.Errorf("upload: %v", err)
				statuses <- "error"
				return
			}
			statuses <- up.Status
		}()
	}
	completed, duplicate := 0, 0
	for i := 0; i < cap(statuses); i++ {
		switch <-statuses {
		case "completed":
			completed++
		case "duplicate":
			duplicate++
		}
	}
	if completed != 1 || duplicate != cap(statuses)-1 {
		t.Errorf("completed = %d, duplicate = %d; want 1 and %d", completed, duplicate, cap(statuses)-1)
	}
	// Every unit settled, so the submitted job itself must now succeed.
	waitJob(t, node.ts.URL, submitted.ID)
}

// TestClusterTraceReplication: a sweep over an ingested trace makes the
// worker pull the trace from the coordinator by digest, verify it, and
// land it in its own registry before simulating.
func TestClusterTraceReplication(t *testing.T) {
	coordReg, err := traceset.Open(t.TempDir(), traceset.Options{})
	if err != nil {
		t.Fatal(err)
	}
	workload.ResetSources()
	workload.RegisterSource(coordReg)
	t.Cleanup(workload.ResetSources)

	// Seed the coordinator's registry with real record content: a
	// catalogue trace's records re-ingested as an "external" trace.
	recs, err := workload.Generate("lbm-1274", tiny.TraceLen)
	if err != nil {
		t.Fatal(err)
	}
	manifest, _, err := coordReg.IngestRecords(recs, trace.FormatGZTR)
	if err != nil {
		t.Fatal(err)
	}

	node := newCoordNode(t, coordReg, nil)
	workerReg, err := traceset.Open(t.TempDir(), traceset.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w, _, _ := startWorker(t, node.ts.URL, "replicator", workerReg, nil)

	name := workload.IngestedName(manifest.Address)
	var submitted struct {
		ID string `json:"id"`
	}
	body := fmt.Sprintf(`{"type":"simulate","request":{"trace":%q,"prefetcher":"Gaze"}}`, name)
	if code := postJSON(t, node.ts.URL+"/jobs", body, &submitted); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	waitJob(t, node.ts.URL, submitted.ID)

	if _, ok := workerReg.Get(manifest.Address); !ok {
		t.Error("worker registry does not hold the replicated trace")
	}
	if got := w.Counters().Replicated; got < 1 {
		t.Errorf("worker replicated counter = %d, want >= 1", got)
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer: the worker's slog handler
// and the tracer's NDJSON log both write from worker/handler goroutines
// while the test reads.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestClusterTraceContinuity is the tracing acceptance criterion: one
// trace ID spans submit → lease → worker execution → upload → adopt.
// The coordinator's ring (via GET /debug/traces?job=) holds the job and
// lease spans; the worker's own tracer and its structured log lines
// carry the SAME trace ID, received over the wire via the work unit's
// traceparent; and every span lands in the coordinator's NDJSON log.
func TestClusterTraceContinuity(t *testing.T) {
	var ndjson syncBuffer
	tracer := obs.NewTracer(obs.TracerOptions{Log: &ndjson})
	node := newCoordNode(t, nil, tracer)

	var workerLog syncBuffer
	wTracer := obs.NewTracer(obs.TracerOptions{})
	w := cluster.NewWorker(cluster.WorkerOptions{
		Client:       cluster.NewClient(node.ts.URL, cluster.ClientOptions{Backoff: 5 * time.Millisecond}),
		Engine:       engine.New(engine.Options{Scale: tiny}),
		Concurrency:  1,
		Name:         "traced",
		PollInterval: 10 * time.Millisecond,
		Logger:       slog.New(slog.NewTextHandler(&workerLog, nil)),
		Tracer:       wTracer,
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error)
	go func() {
		done <- w.Run(ctx)
		close(done)
	}()
	stopped := false
	stop := func() {
		if !stopped {
			stopped = true
			cancel()
			for range done {
			}
		}
	}
	t.Cleanup(stop)

	var submitted struct {
		ID string `json:"id"`
	}
	body := `{"type":"simulate","request":{"trace":"lbm-1274","prefetcher":"Gaze"}}`
	if code := postJSON(t, node.ts.URL+"/jobs", body, &submitted); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	waitJob(t, node.ts.URL, submitted.ID)

	// The terminal job reports the trace ID every later assertion keys on.
	r, err := http.Get(node.ts.URL + "/jobs/" + submitted.ID)
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		TraceID string `json:"trace_id"`
	}
	err = json.NewDecoder(r.Body).Decode(&st)
	r.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.TraceID == "" {
		t.Fatal("terminal job has no trace_id")
	}

	// Coordinator side: GET /debug/traces?job= resolves the same trace and
	// shows the job spans plus the synthesized lease spans.
	r, err = http.Get(node.ts.URL + "/debug/traces?job=" + submitted.ID)
	if err != nil {
		t.Fatal(err)
	}
	if r.StatusCode != http.StatusOK {
		t.Fatalf("debug traces: status %d", r.StatusCode)
	}
	var doc struct {
		TraceID string `json:"trace_id"`
		Spans   []struct {
			TraceID string            `json:"trace_id"`
			Name    string            `json:"name"`
			Attrs   map[string]string `json:"attrs"`
		} `json:"spans"`
	}
	err = json.NewDecoder(r.Body).Decode(&doc)
	r.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if doc.TraceID != st.TraceID {
		t.Fatalf("debug traces resolved %q, job reports %q", doc.TraceID, st.TraceID)
	}
	names := make(map[string]int)
	for _, sp := range doc.Spans {
		if sp.TraceID != st.TraceID {
			t.Fatalf("span %q carries trace %q, want %q", sp.Name, sp.TraceID, st.TraceID)
		}
		names[sp.Name]++
	}
	for _, want := range []string{"job.run", "job.execute", "cluster.lease"} {
		if names[want] == 0 {
			t.Errorf("coordinator trace lacks a %q span (got %v)", want, names)
		}
	}

	// Worker side: stop it, then check its own spans and log lines carry
	// the coordinator's trace ID — continuity over the wire.
	stop()
	units := 0
	for _, sp := range wTracer.Recent(0) {
		if sp.Name != "worker.unit" {
			continue
		}
		units++
		if sp.TraceID != st.TraceID {
			t.Errorf("worker.unit span carries trace %q, want coordinator trace %q", sp.TraceID, st.TraceID)
		}
	}
	if units == 0 {
		t.Error("worker tracer recorded no worker.unit spans")
	}
	logText := workerLog.String()
	completedLine := ""
	for _, line := range strings.Split(logText, "\n") {
		if strings.Contains(line, "unit completed") {
			completedLine = line
			break
		}
	}
	if completedLine == "" {
		t.Fatalf("worker log has no completion line:\n%s", logText)
	}
	if !strings.Contains(completedLine, "trace_id="+st.TraceID) {
		t.Errorf("worker completion line lacks the coordinator's trace id %s:\n%s", st.TraceID, completedLine)
	}

	// NDJSON export: every line is a valid span document, and the job's
	// root span is among them.
	sawRoot := false
	for _, line := range strings.Split(strings.TrimSuffix(ndjson.String(), "\n"), "\n") {
		var sp struct {
			TraceID string `json:"trace_id"`
			Name    string `json:"name"`
		}
		if err := json.Unmarshal([]byte(line), &sp); err != nil {
			t.Fatalf("NDJSON line does not parse: %v\n%s", err, line)
		}
		if sp.Name == "job.run" && sp.TraceID == st.TraceID {
			sawRoot = true
		}
	}
	if !sawRoot {
		t.Error("NDJSON log has no job.run line for the job's trace")
	}
}
