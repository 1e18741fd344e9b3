package main

import (
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/prefetchers"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// prefetcherNames is the paper's comparison roster: the no-prefetch
// baseline plus the nine evaluated prefetchers. Every workload grid and
// layer probe runs all of them.
func prefetcherNames() []string {
	return append([]string{"none"}, prefetchers.EvaluatedNames()...)
}

// unreproducible names evaluated prefetchers whose simulated results
// differ between two identical runs, so no golden digest can pin them.
// SPP-PPF bounds its recent-issue table by deleting whichever entry map
// iteration yields first, which Go randomizes: 157 of the 217 catalogue
// traces give a different result on every run. The workloads simulate
// and time its cells like any other, but golden.txt marks their
// addresses unreproducible instead of giving a digest, every run prints
// how many such cells it could not check (golden_unchecked), and they
// are not reference cells, whose figures must be exact.
var unreproducible = map[string]bool{"SPP-PPF": true}

// coreTraces returns the fixed reference traces: the middle catalogue
// entry of every suite. They are in every sweep-cold round and are the
// serve-mixed pre-populated grid, whatever the seed, so the figures
// computed over them are identical on every run.
func coreTraces() []string {
	var out []string
	for _, s := range workload.Suites() {
		infos := workload.Suite(s)
		out = append(out, infos[len(infos)/2].Name)
	}
	return out
}

// nonCore returns the catalogue traces of a suite outside coreTraces.
func nonCore(suite string) []string {
	core := make(map[string]bool)
	for _, t := range coreTraces() {
		core[t] = true
	}
	var out []string
	for _, info := range workload.Suite(suite) {
		if !core[info.Name] {
			out = append(out, info.Name)
		}
	}
	return out
}

// grid returns one single-core job per (trace, prefetcher).
func grid(traces, pfs []string) []engine.Job {
	jobs := make([]engine.Job, 0, len(traces)*len(pfs))
	for _, t := range traces {
		for _, p := range pfs {
			jobs = append(jobs, engine.Job{Traces: []string{t}, L1: []string{p}})
		}
	}
	return jobs
}

// flushDisk writes all dirty file data to disk and waits until it is
// written. Every workload calls it, untimed, before each set-up and
// before its timed phase, and sweep-cold and bigtrace-mapped before each
// round's read-back: otherwise the kernel writes back earlier files in
// the middle of later timings, which showed as stalls of milliseconds in
// store commits and read-backs.
func flushDisk() { syscall.Sync() }

func newRand(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// resultPath is where a store keeps the record of a content address:
// <dir>/<first two hex digits>/<the rest>.json.
func resultPath(st *engine.Store, addr string) string {
	return filepath.Join(st.Dir(), addr[:2], addr[2:]+".json")
}

// instructions returns the simulated instructions of one single-core job
// at a scale: warm-up plus measured.
func instructions(sc engine.Scale) float64 { return float64(sc.Warmup + sc.Sim) }

// refSet holds the reference cells' results: trace → prefetcher → result.
type refSet map[string]map[string]sim.Result

// add keeps one cell; cells of unreproducible prefetchers are dropped,
// since the figures computed over the reference cells must be exact.
func (r refSet) add(trace, pf string, res sim.Result) {
	if unreproducible[pf] {
		return
	}
	if r[trace] == nil {
		r[trace] = make(map[string]sim.Result)
	}
	r[trace][pf] = res
}

func (r refSet) traces() []string {
	out := make([]string, 0, len(r))
	for t := range r {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// gaze returns the gaze_* figures: the geometric-mean speedup of Gaze
// over no prefetching, and the mean accuracy and coverage of the Gaze
// cells, over the reference traces.
func (r refSet) gaze() (map[string]float64, error) {
	var speedups, acc, cov []float64
	for _, t := range r.traces() {
		g, okG := r[t]["Gaze"]
		base, okB := r[t]["none"]
		if !okG || !okB {
			return nil, fmt.Errorf("reference trace %s lacks its Gaze or none cell", t)
		}
		speedups = append(speedups, engine.Speedup(g, base))
		acc = append(acc, g.Accuracy())
		cov = append(cov, g.Coverage())
	}
	return map[string]float64{
		"gaze_speedup_geomean": stats.Geomean(speedups),
		"gaze_accuracy":        stats.Mean(acc),
		"gaze_coverage":        stats.Mean(cov),
	}, nil
}

// simCounts returns the exact simulated sim.* figures over every
// reference cell.
func (r refSet) simCounts() map[string]float64 {
	var l1, llc, late, row []float64
	var issued, drops float64
	for _, t := range r.traces() {
		pfs := make([]string, 0, len(r[t]))
		for p := range r[t] {
			pfs = append(pfs, p)
		}
		sort.Strings(pfs)
		for _, p := range pfs {
			res := r[t][p]
			l1 = append(l1, res.L1MPKI())
			llc = append(llc, res.LLCMPKI())
			row = append(row, res.DRAMRowHitRate)
			issued += float64(res.IssuedPrefetches())
			for _, c := range res.Cores {
				drops += float64(c.PQDropsFull)
			}
			if p != "none" {
				late = append(late, res.LateFraction())
			}
		}
	}
	return map[string]float64{
		"sim.l1d_mpki":           stats.Mean(l1),
		"sim.llc_mpki":           stats.Mean(llc),
		"sim.pf_issued":          issued,
		"sim.pf_late_ratio":      stats.Mean(late),
		"sim.pq_drop_full":       drops,
		"sim.dram_row_hit_ratio": stats.Mean(row),
	}
}

type layerMetric struct{ name, unit string }

// serverRoutes names the per-route server metrics, keyed by the route
// label the benchmark's HTTP client records.
var serverRoutes = []string{
	"post_jobs", "job_events", "job_result", "job_status",
	"analytics_matrix", "analytics_speedup", "timeline_json", "timeline_csv",
}

// spanLayers are the layers the benchmark wraps with spans.
var spanLayers = []string{"bench", "workload", "traceset", "engine", "sim", "server"}

// perLayer lists the per-layer metrics every traced run reports.
func perLayer() []layerMetric {
	l := []layerMetric{
		{"workload.materialize_ms", "ms"},
		{"workload.trace_cache_hit_ratio", "ratio"},
		{"trace.heap_at_ns", "ns"},
		{"trace.mapped_at_ns", "ns"},
		{"traceset.ingest_s", "s"},
	}
	for _, p := range prefetcherNames() {
		l = append(l, layerMetric{"sim.step_ns." + p, "ns"})
	}
	l = append(l,
		layerMetric{"sim.l1d_mpki", "MPKI"},
		layerMetric{"sim.llc_mpki", "MPKI"},
		layerMetric{"sim.pf_issued", "count"},
		layerMetric{"sim.pf_late_ratio", "ratio"},
		layerMetric{"sim.pq_drop_full", "count"},
		layerMetric{"sim.dram_row_hit_ratio", "ratio"},
	)
	for _, p := range prefetchers.EvaluatedNames() {
		l = append(l, layerMetric{"prefetch.train_ns." + p, "ns"})
	}
	for _, p := range prefetchers.EvaluatedNames() {
		l = append(l, layerMetric{"prefetch.issue_per_train." + p, "ratio"})
	}
	l = append(l,
		layerMetric{"engine.job_ms", "ms"},
		layerMetric{"engine.phase.queue_wait_ms", "ms"},
		layerMetric{"engine.phase.materialize_ms", "ms"},
		layerMetric{"engine.phase.simulate_ms", "ms"},
		layerMetric{"engine.phase.store_commit_ms", "ms"},
		layerMetric{"engine.simulated", "count"},
		layerMetric{"engine.memo_hits", "count"},
		layerMetric{"engine.store_hits", "count"},
		layerMetric{"engine.store_bytes_per_job", "B"},
		layerMetric{"engine.timeline_bytes_per_job", "B"},
		layerMetric{"jobs.queue_wait_ms", "ms"},
		layerMetric{"jobs.execute_ms", "ms"},
		layerMetric{"jobs.finalize_ms", "ms"},
		layerMetric{"jobs.coalesced_ratio", "ratio"},
	)
	for _, r := range serverRoutes {
		l = append(l, layerMetric{"server." + r + "_ms", "ms"})
	}
	l = append(l,
		layerMetric{"server.not_modified_ratio", "ratio"},
		layerMetric{"server.analytics_cache_hit_ratio", "ratio"},
		layerMetric{"server.response_kb", "KB"},
		layerMetric{"runtime.gc_cycles", "count"},
		layerMetric{"runtime.heap_alloc_mb", "MB"},
	)
	for _, s := range spanLayers {
		l = append(l, layerMetric{"self." + s + "_share", "ratio"})
	}
	return append(l, layerMetric{"tracing_overhead_ratio", "ratio"})
}

// engineTotals accumulates what the engines of one run report.
type engineTotals struct {
	phases                   *obs.HistogramVec
	counters                 engine.Counters
	storeBytes, storeEntries int64
	telBytes, telDocs        int64
}

func newEngineTotals() *engineTotals {
	return &engineTotals{phases: obs.NewMetrics().EnginePhase}
}

// add folds in one engine at the end of its life.
func (t *engineTotals) add(eng *engine.Engine) {
	c := eng.Counters()
	t.counters.Simulated += c.Simulated
	t.counters.MemoHits += c.MemoHits
	t.counters.StoreHits += c.StoreHits
	if st := eng.Store(); st != nil {
		for _, e := range st.Entries() {
			t.storeBytes += e.Bytes
			t.storeEntries++
		}
	}
	tel := eng.TelemetryStats()
	t.telBytes += tel.Bytes
	t.telDocs += tel.Documents
}

// into writes the engine.* per-layer metrics. Phase figures are read
// from the phase histogram's Prometheus rendering: mean = sum / count.
func (t *engineTotals) into(m map[string]float64) error {
	var b strings.Builder
	t.phases.WriteProm(&b)
	doc, err := obs.LintProm(b.String())
	if err != nil {
		return fmt.Errorf("reading engine phase histogram: %w", err)
	}
	phaseMean := func(phase string) float64 {
		sel := `{phase="` + phase + `"}`
		n := doc.Samples["gaze_engine_phase_duration_seconds_count"+sel]
		if n == 0 {
			return 0
		}
		return 1000 * doc.Samples["gaze_engine_phase_duration_seconds_sum"+sel] / n
	}
	jobs := t.counters.Simulated + t.counters.MemoHits + t.counters.StoreHits
	shardSum := doc.Samples[`gaze_engine_phase_duration_seconds_sum{phase="shard"}`]
	if jobs > 0 {
		m["engine.job_ms"] = 1000 * shardSum / float64(jobs)
	}
	for _, p := range []string{"queue_wait", "materialize", "simulate", "store_commit"} {
		m["engine.phase."+p+"_ms"] = phaseMean(p)
	}
	m["engine.simulated"] = float64(t.counters.Simulated)
	m["engine.memo_hits"] = float64(t.counters.MemoHits)
	m["engine.store_hits"] = float64(t.counters.StoreHits)
	if t.storeEntries > 0 {
		m["engine.store_bytes_per_job"] = float64(t.storeBytes) / float64(t.storeEntries)
	}
	if t.telDocs > 0 {
		m["engine.timeline_bytes_per_job"] = float64(t.telBytes) / float64(t.telDocs)
	}
	return nil
}

// runtimeStats samples the Go runtime around the timed phase.
type runtimeStats struct {
	gc0      uint32
	heapPeak uint64
}

func startRuntimeStats() *runtimeStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return &runtimeStats{gc0: ms.NumGC}
}

// sample records the live heap; call it at round boundaries.
func (r *runtimeStats) sample() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.heapPeak = max(r.heapPeak, ms.HeapAlloc)
}

func (r *runtimeStats) into(m map[string]float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.heapPeak = max(r.heapPeak, ms.HeapAlloc)
	m["runtime.gc_cycles"] = float64(ms.NumGC - r.gc0)
	m["runtime.heap_alloc_mb"] = float64(r.heapPeak) / (1 << 20)
}

// spanMetrics writes each wrapped layer's self time as a share of the
// traced root time (spans of concurrent goroutines each count, so the
// shares can add up to more than one), and the tracing overhead: the
// traced rounds' median cost over the untraced rounds' (1 = no
// overhead).
func spanMetrics(rec *recorder, traced, untraced []float64, m map[string]float64) error {
	self, roots := layerSelf(rec.snapshot())
	if roots <= 0 {
		return fmt.Errorf("traced run recorded no spans")
	}
	for _, l := range spanLayers {
		m["self."+l+"_share"] = float64(self[l]) / float64(roots)
	}
	if len(traced) == 0 || len(untraced) == 0 {
		return fmt.Errorf("tracing overhead needs traced and untraced rounds (have %d and %d)", len(traced), len(untraced))
	}
	m["tracing_overhead_ratio"] = median(traced) / median(untraced)
	return nil
}

func cacheHitRatio(before, after workload.CacheStats) float64 {
	hits := after.Hits - before.Hits
	total := hits + after.Misses - before.Misses
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}
