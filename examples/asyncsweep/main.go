// Example asyncsweep drives a Fig 16-style sensitivity campaign through
// the asynchronous jobs API end to end, without any external setup: it
// starts gazeserve's handler in-process (engine + durable jobs manager,
// exactly as cmd/gazeserve wires them), then acts as a client —
//
//  1. POST /jobs submits a multi-prefetcher DRAM-bandwidth sweep as a
//     background job and gets a content-addressed ID back immediately;
//  2. GET /jobs/{id}/events streams NDJSON progress (done/total, ETA)
//     while the engine grinds through the grid;
//  3. GET /jobs/{id}/result fetches the finished SweepResponse — the
//     same document, same per-row content addresses, a synchronous
//     POST /sweep would have returned;
//  4. a second submission of the same campaign coalesces onto the
//     finished job, and a freshly submitted second campaign is cancelled
//     mid-flight with DELETE /jobs/{id}.
//
// Against a separately running `gazeserve` binary the same requests work
// unchanged; point the http calls at its -addr instead.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/engine"
	"repro/internal/jobs"
	"repro/internal/server"
)

func main() {
	// Quick scale keeps the demo in seconds. The jobs journal lives in a
	// throwaway directory so the example leaves no files behind; point it
	// somewhere stable and queued campaigns survive restarts.
	eng := engine.New(engine.Options{Scale: engine.Quick})
	dir, err := os.MkdirTemp("", "asyncsweep-jobs-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	mgr, err := jobs.Open(jobs.Options{Engine: eng, Compile: server.Compiler(eng), Dir: dir})
	if err != nil {
		log.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go http.Serve(ln, server.New(eng).AttachJobs(mgr).Handler()) //nolint:errcheck
	base := "http://" + ln.Addr().String()
	fmt.Println("gazeserve listening on", base, "— journal at", dir)

	campaign := map[string]any{
		"type": "sweep",
		"request": map[string]any{
			"traces":      []string{"lbm-1274", "bwaves_s-2609"},
			"prefetchers": []string{"IP-stride", "PMP", "Gaze"},
			"axis":        map[string]any{"param": "dram_mtps", "values": []float64{800, 1600, 3200}},
		},
	}

	// 1. Submit: 202 + content-addressed ID, long before any result exists.
	var job server.JobStatus
	post(base+"/jobs", campaign, &job)
	fmt.Printf("\nPOST /jobs → %s (%s)\n", job.ID[:12], job.State)

	// 2. Stream progress until the job finishes.
	fmt.Println("GET /jobs/" + job.ID[:12] + "/events:")
	resp, err := http.Get(base + "/jobs/" + job.ID + "/events")
	if err != nil {
		log.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev server.JobStatus
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-9s %2d/%2d done (%d cached)  elapsed %4dms  eta %4dms\n",
			ev.State, ev.Progress.Done, ev.Progress.Total, ev.Progress.Cached,
			ev.Progress.ElapsedMS, ev.Progress.RemainingMS)
	}
	resp.Body.Close()

	// 3. Fetch the finished document — the paper's Fig 16a curve.
	var result server.SweepResponse
	get(base+"/jobs/"+job.ID+"/result", &result)
	fmt.Println("\nGET /jobs/{id}/result — DRAM-bandwidth sensitivity (geomean speedup):")
	for _, p := range result.Sensitivity {
		fmt.Printf("  %5.0f MTPS  %-10s %.3f\n", p.Value, p.Prefetcher, p.GeomeanSpeedup)
	}

	// 4a. The same campaign resubmitted coalesces onto the finished job.
	var again server.JobStatus
	post(base+"/jobs", campaign, &again)
	fmt.Printf("\nresubmitted: coalesced=%v onto %s (%s)\n", again.Coalesced, again.ID[:12], again.State)

	// 4b. A fresh campaign, cancelled mid-flight: the engine stops at the
	// next job boundary and the job lands in canceled with partial
	// progress (everything it did finish stays memoized).
	second := map[string]any{
		"type": "sweep",
		"request": map[string]any{
			"suite":       "gap",
			"prefetchers": []string{"IP-stride", "PMP", "Gaze"},
			"axis":        map[string]any{"param": "pq_capacity", "values": []float64{8, 16, 32, 64}},
		},
	}
	var cancelMe server.JobStatus
	post(base+"/jobs", second, &cancelMe)
	for !jobs.State(cancelMe.State).Terminal() {
		if cancelMe.State == string(jobs.Running) && cancelMe.Progress.Done > 0 {
			req, _ := http.NewRequest(http.MethodDelete, base+"/jobs/"+cancelMe.ID, nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				log.Fatal(err)
			}
			resp.Body.Close()
		}
		time.Sleep(5 * time.Millisecond)
		get(base+"/jobs/"+cancelMe.ID, &cancelMe)
	}
	fmt.Printf("second campaign: %s at %d/%d after DELETE\n",
		cancelMe.State, cancelMe.Progress.Done, cancelMe.Progress.Total)

	var stats server.StatsResponse
	get(base+"/stats", &stats)
	fmt.Printf("\nGET /stats jobs counters: %+v\n", *stats.Jobs)
}

func post(url string, req, resp any) {
	body, err := json.Marshal(req)
	if err != nil {
		log.Fatal(err)
	}
	r, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode >= 300 {
		msg, _ := json.Marshal(req)
		log.Fatalf("POST %s (%s): status %d", url, msg, r.StatusCode)
	}
	if err := json.NewDecoder(r.Body).Decode(resp); err != nil {
		log.Fatal(err)
	}
}

func get(url string, resp any) {
	r, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		log.Fatalf("GET %s: status %d", url, r.StatusCode)
	}
	if err := json.NewDecoder(r.Body).Decode(resp); err != nil {
		log.Fatal(err)
	}
}
