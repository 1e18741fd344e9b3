package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/prefetchers"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// sweepCycle is how many distinct rounds a sweep-cold run cycles
// through (more than a run completes): each round is the core traces
// plus one seeded extra trace per suite, and set-up materializes the
// traces of all of them.
const sweepCycle = 24

// sweepCold runs the catalogue grid on a fresh engine and store per
// round, as cmd/experiments and POST /sweep do.
func sweepCold(e *env) (*outcome, error) {
	sc := engine.Quick
	core := coreTraces()
	rng := newRand(e.seed, 1)
	// Each suite's extra traces are dealt in a seeded order, cycling, so
	// a run covers as many distinct traces as it has rounds and every
	// seed draws a similar mix.
	rounds := make([][]string, sweepCycle)
	for i := range rounds {
		rounds[i] = append([]string(nil), core...)
	}
	for _, s := range workload.Suites() {
		extra := nonCore(s)
		rng.Shuffle(len(extra), func(i, j int) { extra[i], extra[j] = extra[j], extra[i] })
		for i := range rounds {
			rounds[i] = append(rounds[i], extra[i%len(extra)])
		}
	}
	isCore := make(map[string]bool)
	for _, t := range core {
		isCore[t] = true
	}
	out := &outcome{layer: make(map[string]float64)}
	var matMs []float64
	for i := 0; i < setupReps; i++ {
		workload.ResetTraceCache()
		runtime.GC() // every set-up starts from a clean heap and disk
		flushDisk()
		start := time.Now()
		root := e.rec.root("bench.setup", e.traced)
		seen := make(map[string]bool)
		for _, traces := range rounds {
			for _, t := range traces {
				if seen[t] {
					continue
				}
				seen[t] = true
				t0 := time.Now()
				sp := root.child("workload.materialize")
				_, err := workload.MaterializeRecords(t, sc.TraceLen)
				sp.end()
				if err != nil {
					return nil, err
				}
				matMs = append(matMs, ms(time.Since(t0)))
			}
		}
		root.end()
		out.setups = append(out.setups, time.Since(start).Seconds())
	}

	flushDisk()
	tot := newEngineTotals()
	tc0 := workload.TraceCacheStats()
	rt := startRuntimeStats()
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
		// A traced run pairs every round with a traced repeat of it, so
		// the tracing overhead compares identical work; which of the two
		// runs first alternates, so warm-up favours neither.
		idx, isTraced := n, false
		if e.traced {
			idx, isTraced = n/2, (n%2 == 1) != (n/2%2 == 1)
		}
		traces := rounds[idx%sweepCycle]
		jobs := grid(traces, prefetcherNames())
		rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
		i0, r0 := out.instr, out.requests
		secs, err := sweepRound(e, sc, filepath.Join(e.dir, fmt.Sprintf("round-%d", n)), jobs, isCore, isTraced, tot, out)
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
	if len(out.ref) != len(core) {
		return out, fmt.Errorf("sweep-cold ran no complete round")
	}
	if !e.traced {
		return out, nil
	}

	m := out.layer
	if err := tot.into(m); err != nil {
		return out, err
	}
	m["workload.materialize_ms"] = stats.Mean(matMs)
	m["workload.trace_cache_hit_ratio"] = cacheHitRatio(tc0, workload.TraceCacheStats())
	rt.into(m)
	if err := layerProbes(e, sc, core[0], m); err != nil {
		return out, err
	}
	if err := servingProbe(e, sc, rounds[0], prefetchers.EvaluatedNames(), m); err != nil {
		return out, err
	}
	return out, spanMetrics(e.rec, traced, untraced, m)
}

// sweepRound runs one grid on a fresh engine and store and checks that
// every job simulated. It returns the seconds the grid took; after them
// it verifies every result against its golden digest and reads every
// result and timeline back from the store.
//
// Round stores stay on disk until the run ends, when main removes its
// whole scratch directory: deleting hundreds of files during the timed
// phase stalls the file system for milliseconds at a time, which showed
// as stalls in the next round's store commits and read-backs.
func sweepRound(e *env, sc engine.Scale, dir string, jobs []engine.Job, core map[string]bool, traced bool, tot *engineTotals, out *outcome) (float64, error) {
	root := e.rec.root("bench.round", traced)
	defer root.end()
	st, err := engine.Open(dir)
	if err != nil {
		return 0, err
	}
	eng := engine.New(engine.Options{
		Scale: sc, Store: st, Workers: e.workers, Seed: e.seed,
		Phases: tot.phases, TelemetryInterval: sim.DefaultTelemetryInterval,
	})
	var mu sync.Mutex
	start := time.Now()
	sp := root.child("engine.run_all")
	results, err := eng.RunAllContext(e.ctx, jobs, func(engine.Progress) {
		mu.Lock()
		out.submits = append(out.submits, ms(time.Since(start)))
		mu.Unlock()
	})
	secs := time.Since(start).Seconds()
	sp.end()
	out.attempted += int64(len(jobs))
	if err != nil {
		out.failed += int64(len(jobs))
		return secs, err
	}
	out.instr += float64(len(jobs)) * instructions(sc)
	out.requests += int64(len(jobs))
	c := eng.Counters()
	if c.Simulated != uint64(len(jobs)) || c.MemoHits != 0 || c.StoreHits != 0 {
		return secs, fmt.Errorf("sweep-cold round served %d memo and %d store hits, simulated %d of %d",
			c.MemoHits, c.StoreHits, c.Simulated, len(jobs))
	}
	flushDisk()
	if err := readBack(e, sc, st, eng, jobs, results, 1, root, out); err != nil {
		return secs, err
	}
	for i, j := range jobs {
		if core[j.Traces[0]] {
			out.ref.add(j.Traces[0], j.L1[0], results[i])
		}
	}
	tot.add(eng)
	return secs, nil
}

// loadsPerRead is how many times a read-back loads a cell for one read
// sample: the sample is the median of the loads.
const loadsPerRead = 5

// readBack verifies each job's exported result against the golden
// digest, then reads the finished cells back from the store, as a client
// fetching results does. Loading a cell reads and decodes its result
// document and its timeline, which must byte-match the exported result
// and the engine's timeline. The cells are loaded in passes over all of
// them, and every loadsPerRead passes give each cell one read sample,
// the median of its loads; samples is how many each cell gives. A stall
// the host imposes on one load therefore does not become a sample, while
// a slower read path slows every load.
func readBack(e *env, sc engine.Scale, st *engine.Store, eng *engine.Engine, jobs []engine.Job, results []sim.Result, samples int, root *open, out *outcome) error {
	docs := make([][]byte, len(jobs))
	addrs := make([]string, len(jobs))
	for i, j := range jobs {
		key := j.CanonicalJSON(sc)
		doc, err := engine.ExportResult(key, results[i])
		if err != nil {
			return err
		}
		addrs[i] = engine.AddressOfKey(key)
		checked, err := e.golden.check(addrs[i], doc)
		if err != nil {
			return err
		}
		if !checked {
			out.unchecked++
		}
		docs[i] = doc
	}
	loads := make([][]float64, len(addrs))
	for s := 0; s < samples; s++ {
		for p := 0; p < loadsPerRead; p++ {
			for i, addr := range addrs {
				sp := root.child("engine.read")
				t0 := time.Now()
				data, tl, err := loadCell(st, addr)
				loads[i] = append(loads[i], ms(time.Since(t0)))
				sp.end()
				out.attempted++
				if err != nil {
					out.failed++
					return err
				}
				if !bytes.Equal(data, docs[i]) {
					return fmt.Errorf("stored result %s differs from the exported result", addr[:12])
				}
				if mem, _ := eng.Telemetry(addr); !bytes.Equal(tl, mem) {
					return fmt.Errorf("stored timeline %s differs from the engine's", addr[:12])
				}
			}
		}
		for i := range loads {
			out.reads = append(out.reads, median(loads[i]))
			loads[i] = loads[i][:0]
		}
	}
	return nil
}

// loadCell reads and decodes one cell's result document and timeline
// from a store.
func loadCell(st *engine.Store, addr string) (doc, timeline []byte, err error) {
	doc, err = os.ReadFile(resultPath(st, addr))
	if err != nil {
		return nil, nil, fmt.Errorf("reading back %s: %w", addr[:12], err)
	}
	if _, _, err := engine.ImportResult(addr, doc); err != nil {
		return nil, nil, fmt.Errorf("reading back %s: %w", addr[:12], err)
	}
	timeline, ok := st.GetTelemetry(addr)
	if !ok {
		return nil, nil, fmt.Errorf("reading back %s: no timeline", addr[:12])
	}
	if _, err := engine.DecodeTelemetry(timeline); err != nil {
		return nil, nil, fmt.Errorf("reading back %s: %w", addr[:12], err)
	}
	return doc, timeline, nil
}
