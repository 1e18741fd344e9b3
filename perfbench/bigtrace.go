package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/traceset"
	"repro/internal/workload"
)

const (
	// bigSource is the catalogue trace the big trace is generated from: a
	// mixed spatial-footprint profile, so spatial prefetchers have
	// patterns to learn (on uniform-random addresses every one of them
	// reads the same).
	bigSource = "milc-127"
	// bigRecords is the big trace's length: above gazeserve's default
	// auto-slice threshold of 2M records, so this is a trace it would
	// slice; its mapped columnar slab is 76 MB.
	bigRecords = 4_000_000
	// bigReadSamples is how many read samples each finished cell gives
	// after its round, each the median of loadsPerRead loads, as a client
	// polling finished results would: a round finishes only six cells,
	// and fewer samples leave read_p99 short of ten samples beyond it in
	// a 30-second run. The reads are repeats of the same few documents,
	// timed outside the round.
	bigReadSamples = 8
)

// bigScale runs a 3M-instruction window (1M warm-up, 2M measured) over
// the whole big trace.
var bigScale = engine.Scale{TraceLen: bigRecords, Warmup: 1_000_000, Sim: 2_000_000}

var bigPrefetchers = []string{"none", "Gaze", "PMP"}

// bigSetup generates the big trace, ingests it into a fresh registry
// under dir, registers the registry as a trace source and maps the slab;
// the caller resets earlier sources and the trace cache first. It returns the trace's workload name, the ingest time and the
// mapping time.
func bigSetup(dir string, root *open) (name string, ingest, mapping time.Duration, err error) {
	sp := root.child("workload.generate")
	recs, err := workload.Generate(bigSource, bigRecords)
	sp.end()
	if err != nil {
		return "", 0, 0, err
	}
	reg, err := traceset.Open(dir, traceset.Options{})
	if err != nil {
		return "", 0, 0, err
	}
	sp = root.child("traceset.ingest")
	t0 := time.Now()
	m, _, err := reg.IngestRecords(recs, trace.FormatGZTR)
	ingest = time.Since(t0)
	sp.end()
	if err != nil {
		return "", 0, 0, err
	}
	workload.RegisterSource(reg)
	sp = root.child("workload.materialize")
	t0 = time.Now()
	slab, err := workload.MaterializeRecords(m.Name(), bigRecords)
	mapping = time.Since(t0)
	sp.end()
	if err != nil {
		return "", 0, 0, err
	}
	if cols, ok := slab.(*trace.Columns); !ok || !cols.Mapped() || cols.Len() != bigRecords {
		return "", 0, 0, fmt.Errorf("big trace is not served from a mapped slab of %d records", bigRecords)
	}
	return m.Name(), ingest, mapping, nil
}

func bigJobs(name string) []engine.Job {
	return grid([]string{name}, bigPrefetchers)
}

// bigtraceMapped runs {none, Gaze, PMP} over the big mapped trace in
// rounds of one lane per CPU.
func bigtraceMapped(e *env) (*outcome, error) {
	out := &outcome{layer: make(map[string]float64)}
	var (
		name             string
		ingests, mapping []float64
	)
	// Each set-up writes about 100 MB. Before the next one the previous
	// registry is deleted, so its pages are dropped rather than written
	// back, and the disk is flushed before every set-up and once set-up
	// is over: neither a set-up nor the timed phase may share the disk
	// with an earlier set-up's writeback.
	var regDir string
	for i := 0; i < setupReps; i++ {
		workload.ResetSources()
		workload.ResetTraceCache()
		if regDir != "" {
			if err := os.RemoveAll(regDir); err != nil {
				return nil, err
			}
		}
		runtime.GC() // every set-up starts from a clean heap and disk
		flushDisk()
		regDir = filepath.Join(e.dir, fmt.Sprintf("registry-%d", i))
		start := time.Now()
		root := e.rec.root("bench.setup", e.traced)
		n, ing, mp, err := bigSetup(regDir, root)
		root.end()
		if err != nil {
			return nil, err
		}
		out.setups = append(out.setups, time.Since(start).Seconds())
		name = n
		ingests = append(ingests, ing.Seconds())
		mapping = append(mapping, ms(mp))
	}
	flushDisk()

	tot := newEngineTotals()
	tc0 := workload.TraceCacheStats()
	rt := startRuntimeStats()
	rng := newRand(e.seed, 1)
	out.ref = make(refSet)
	var traced, untraced []float64
	start := time.Now()
	for n := 0; ; n++ {
		el := time.Since(start)
		enough := len(out.submits) >= minSubmits && len(out.reads) >= minReads
		if e.traced {
			enough = n >= 2 // one traced and one untraced round
		}
		if (el >= e.seconds && enough) || el >= 3*e.seconds {
			break
		}
		// Traced and untraced rounds alternate in pairs whose order flips,
		// so warm-up favours neither.
		isTraced := e.traced && (n%2 == 1) != (n/2%2 == 1)
		i0, r0 := out.instr, out.requests
		secs, err := bigRound(e, filepath.Join(e.dir, fmt.Sprintf("round-%d", n)), name, rng, isTraced, tot, out)
		if err != nil {
			return out, err
		}
		rt.sample()
		if isTraced {
			traced = append(traced, secs)
		} else {
			untraced = append(untraced, secs)
			out.rounds = append(out.rounds, round{secs, out.instr - i0, float64(out.requests - r0)})
		}
	}
	if len(out.ref) == 0 {
		return out, fmt.Errorf("bigtrace-mapped completed no round")
	}
	if !e.traced {
		return out, nil
	}

	m := out.layer
	if err := tot.into(m); err != nil {
		return out, err
	}
	m["workload.materialize_ms"] = median(mapping)
	m["workload.trace_cache_hit_ratio"] = cacheHitRatio(tc0, workload.TraceCacheStats())
	m["traceset.ingest_s"] = median(ingests)
	rt.into(m)
	slab, err := workload.MaterializeRecords(name, bigRecords)
	if err != nil {
		return out, err
	}
	recordAccessProbe(heapCopy(slab), slab, m)
	root := e.rec.root("bench.probes", true)
	err = stepProbe(root, engineConfig(bigScale), slab, 200_000, m)
	root.end()
	if err != nil {
		return out, err
	}
	if err := servingProbe(e, bigScale, []string{name}, bigPrefetchers[1:], m); err != nil {
		return out, err
	}
	return out, spanMetrics(e.rec, traced, untraced, m)
}

// bigRound runs the three cells in each of nproc lanes at once, one
// lane per CPU, each lane on a fresh single-worker engine and store and
// each cell its own submission. It returns the seconds until every lane
// was done; after them it verifies and reads back every cell, with no
// simulation running beside the reads. Like sweepRound it leaves its
// stores on disk until the run ends.
func bigRound(e *env, dir, name string, rng *rand.Rand, traced bool, tot *engineTotals, out *outcome) (float64, error) {
	root := e.rec.root("bench.round", traced)
	defer root.end()
	type lane struct {
		st      *engine.Store
		eng     *engine.Engine
		jobs    []engine.Job
		results []sim.Result
		lats    []float64
		err     error
	}
	lanes := make([]*lane, e.workers)
	for k := range lanes {
		st, err := engine.Open(filepath.Join(dir, fmt.Sprint(k)))
		if err != nil {
			return 0, err
		}
		jobs := bigJobs(name)
		rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
		lanes[k] = &lane{
			st: st,
			eng: engine.New(engine.Options{
				Scale: bigScale, Store: st, Workers: 1, Seed: e.seed,
				Phases: tot.phases, TelemetryInterval: sim.DefaultTelemetryInterval,
			}),
			jobs:    jobs,
			results: make([]sim.Result, len(jobs)),
		}
	}
	var wg sync.WaitGroup
	start := time.Now()
	for _, l := range lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, j := range l.jobs {
				sp := root.child("engine.run_all")
				t0 := time.Now()
				res, err := l.eng.RunAllContext(e.ctx, []engine.Job{j}, nil)
				l.lats = append(l.lats, ms(time.Since(t0)))
				sp.end()
				if err != nil {
					l.err = err
					return
				}
				l.results[i] = res[0]
			}
		}()
	}
	wg.Wait()
	secs := time.Since(start).Seconds()
	flushDisk()
	for _, l := range lanes {
		out.attempted += int64(len(l.lats))
		if l.err != nil {
			out.failed++
			return secs, l.err
		}
		out.submits = append(out.submits, l.lats...)
		out.instr += float64(len(l.jobs)) * instructions(bigScale)
		out.requests += int64(len(l.jobs))
		if c := l.eng.Counters(); c.Simulated != uint64(len(l.jobs)) {
			return secs, fmt.Errorf("bigtrace-mapped lane simulated %d of %d jobs", c.Simulated, len(l.jobs))
		}
	}
	for _, l := range lanes {
		if err := readBack(e, bigScale, l.st, l.eng, l.jobs, l.results, bigReadSamples, root, out); err != nil {
			return secs, err
		}
		for i, j := range l.jobs {
			out.ref.add("big", j.L1[0], l.results[i])
		}
		tot.add(l.eng)
	}
	return secs, nil
}

// writeGolden simulates every cell a workload can run and rewrites
// perfbench/golden.txt: every catalogue trace with every simulated
// prefetcher at Quick scale, at the default DRAM rate and at
// serveDRAMMTPS (sweep-cold and serve-mixed), and the big trace's cells.
func writeGolden(dir string) error {
	var cells []goldenCell
	var names []string
	for _, info := range workload.Catalogue() {
		names = append(names, info.Name)
	}
	for _, j := range grid(names, prefetcherNames()) {
		cells = append(cells, goldenCell{engine.Quick, j})
		j.Overrides.DRAMMTPS = serveDRAMMTPS
		cells = append(cells, goldenCell{engine.Quick, j})
	}
	workload.ResetSources()
	name, _, _, err := bigSetup(filepath.Join(dir, "registry"), nil)
	if err != nil {
		return err
	}
	for _, j := range bigJobs(name) {
		cells = append(cells, goldenCell{bigScale, j})
	}
	return makeGolden(filepath.Join("perfbench", "golden.txt"), cells)
}
