// End-to-end telemetry over the cluster seam: a worker-executed job's
// timeline documents must land on the coordinator's disk byte-identical
// to a single-node control run of the same job — the same store-equality
// guarantee result documents carry, extended to their sidecars.
package cluster_test

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/jobs"
	"repro/internal/server"
)

const e2eTelemetryInterval = 5_000

// newArmedCoordNode is newCoordNode with interval telemetry armed on the
// coordinator's engine (for serving) — the computation happens on
// workers, so every timeline this node holds arrived over the wire.
func newArmedCoordNode(t *testing.T) *coordNode {
	t.Helper()
	dir := t.TempDir()
	store, err := engine.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Options{Scale: tiny, Store: store, TelemetryInterval: e2eTelemetryInterval})
	coord := cluster.NewCoordinator(cluster.CoordinatorOptions{
		Engine:        eng,
		LeaseTTL:      30 * time.Second,
		MaxLeaseBatch: 1,
	})
	mgr, err := jobs.Open(jobs.Options{Engine: eng, Compile: server.Compiler(eng), Workers: 2, Execute: coord.Execute})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Shutdown(context.Background()) }) //nolint:errcheck
	ts := httptest.NewServer(server.New(eng).AttachJobs(mgr).AttachCluster(coord).Handler())
	t.Cleanup(ts.Close)
	return &coordNode{ts: ts, coord: coord, dir: dir}
}

// timelineSnapshot maps relative path → contents for every .timeline
// sidecar under a store directory.
func timelineSnapshot(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".timeline" {
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

func TestClusterTelemetryByteIdenticalToLocal(t *testing.T) {
	node := newArmedCoordNode(t)

	// The worker arms the same interval: its engine computes, so it is
	// the one collecting — mirroring gazeserve -worker -telemetry-interval.
	w := cluster.NewWorker(cluster.WorkerOptions{
		Client:       cluster.NewClient(node.ts.URL, cluster.ClientOptions{Backoff: 5 * time.Millisecond}),
		Engine:       engine.New(engine.Options{Scale: tiny, TelemetryInterval: e2eTelemetryInterval}),
		Concurrency:  1,
		Name:         "telemetry-worker",
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
		for range done {
		}
	})

	const body = `{"type":"simulate","request":{"trace":"lbm-1274","prefetcher":"Gaze"}}`
	var submitted struct {
		ID string `json:"id"`
	}
	if code := postJSON(t, node.ts.URL+"/jobs", body, &submitted); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	waitJob(t, node.ts.URL, submitted.ID)

	// The terminal job links its timelines, and every link serves from
	// the coordinator — which never simulated a single instruction.
	r, err := http.Get(node.ts.URL + "/jobs/" + submitted.ID)
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Timelines []string `json:"timelines"`
	}
	err = json.NewDecoder(r.Body).Decode(&st)
	r.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Timelines) != 2 {
		t.Fatalf("job links %d timelines, want 2 (target + baseline): %v", len(st.Timelines), st.Timelines)
	}
	for _, link := range st.Timelines {
		resp, err := http.Get(node.ts.URL + link)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("linked timeline %s = %d: %s", link, resp.StatusCode, data)
		}
		addr := strings.TrimSuffix(strings.TrimPrefix(link, "/results/"), "/timeline")
		if _, _, err := engine.ImportTelemetry(addr, data); err != nil {
			t.Errorf("worker-uploaded timeline %s does not verify: %v", link, err)
		}
	}

	// Single-node control: the same job computed locally with telemetry
	// armed must persist byte-identical sidecars at identical paths.
	localDir := t.TempDir()
	localStore, err := engine.Open(localDir)
	if err != nil {
		t.Fatal(err)
	}
	localEng := engine.New(engine.Options{Scale: tiny, Store: localStore, TelemetryInterval: e2eTelemetryInterval})
	localMgr, err := jobs.Open(jobs.Options{Engine: localEng, Compile: server.Compiler(localEng), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { localMgr.Shutdown(context.Background()) }) //nolint:errcheck
	localTS := httptest.NewServer(server.New(localEng).AttachJobs(localMgr).Handler())
	t.Cleanup(localTS.Close)
	var localJob struct {
		ID string `json:"id"`
	}
	if code := postJSON(t, localTS.URL+"/jobs", body, &localJob); code != http.StatusAccepted {
		t.Fatalf("local submit: status %d", code)
	}
	waitJob(t, localTS.URL, localJob.ID)

	clusterTL, localTL := timelineSnapshot(t, node.dir), timelineSnapshot(t, localDir)
	if len(clusterTL) == 0 {
		t.Fatal("cluster run landed no timeline sidecars on the coordinator")
	}
	if len(clusterTL) != len(localTL) {
		t.Fatalf("timeline count: cluster %d, local %d", len(clusterTL), len(localTL))
	}
	for rel, data := range localTL {
		if clusterTL[rel] != data {
			t.Errorf("timeline sidecar %s differs between worker-executed and local runs", rel)
		}
	}
}
