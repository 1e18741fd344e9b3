package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/engine"
	"repro/internal/prefetch"
	"repro/internal/prefetchers"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/traceset"
	"repro/internal/workload"
)

// The probes of this file time single layers from outside, through their
// public functions, on the workload's own trace: record access (trace),
// one simulation step (sim), one prefetcher Train call (prefetchers and
// core), and trace ingestion (traceset). Traced runs only.

// probeSink keeps probe loops from being optimised away.
var probeSink uint64

// atNs returns the host nanoseconds per Records.At over recs in step
// order, reading at least total records.
func atNs(recs trace.Records, total int) float64 {
	n := recs.Len()
	var sink uint64
	start := time.Now()
	done := 0
	for done < total {
		for i := 0; i < n; i++ {
			r := recs.At(i)
			sink += r.PC ^ r.Addr + uint64(r.NonMem)
		}
		done += n
	}
	el := time.Since(start)
	probeSink += sink
	return float64(el) / float64(done)
}

// mappedCopy writes recs as a columnar slab file under dir and maps it,
// for workloads whose own slabs live on the heap.
func mappedCopy(dir string, recs []trace.Record) (*trace.Columns, error) {
	path := filepath.Join(dir, "probe.cols")
	if err := os.WriteFile(path, trace.EncodeColumnar(recs), 0o644); err != nil {
		return nil, fmt.Errorf("writing probe slab: %w", err)
	}
	cols, err := trace.MapColumnar(path)
	if err != nil {
		return nil, fmt.Errorf("mapping probe slab: %w", err)
	}
	if !cols.Mapped() {
		return nil, fmt.Errorf("probe slab was decoded onto the heap, not mapped")
	}
	return cols, nil
}

// heapCopy returns recs as a heap slab.
func heapCopy(recs trace.Records) trace.RecSlice {
	out := make(trace.RecSlice, recs.Len())
	for i := range out {
		out[i] = recs.At(i)
	}
	return out
}

// recordAccessProbe fills trace.heap_at_ns and trace.mapped_at_ns.
func recordAccessProbe(heap, mapped trace.Records, m map[string]float64) {
	const reads = 8_000_000
	m["trace.heap_at_ns"] = median([]float64{atNs(heap, reads), atNs(heap, reads), atNs(heap, reads)})
	m["trace.mapped_at_ns"] = median([]float64{atNs(mapped, reads), atNs(mapped, reads), atNs(mapped, reads)})
}

// engineConfig is the single-core system configuration an engine at
// scale sc builds for every job (sim.DefaultConfig plus the scale's
// budgets and the service's telemetry interval).
func engineConfig(sc engine.Scale) sim.Config {
	cfg := sim.DefaultConfig(1)
	cfg.WarmupInstructions = sc.Warmup
	cfg.SimInstructions = sc.Sim
	cfg.TelemetryInterval = sim.DefaultTelemetryInterval
	return cfg
}

// stepProbe fills sim.step_ns.<pf> (System.Advance per record) and, with
// the prefetcher wrapped in a timing decorator, prefetch.train_ns.<pf>
// and prefetch.issue_per_train.<pf>.
func stepProbe(root *open, cfg sim.Config, slab trace.Records, steps int, m map[string]float64) error {
	warm := steps / 4
	build := func(pf prefetch.Prefetcher) (*sim.System, error) {
		return sim.New(cfg, []sim.CoreSpec{{
			Trace:        trace.NewLooping(trace.NewRecordsReader(slab)),
			L1Prefetcher: pf,
		}})
	}
	clockNs := clockCost()
	for _, name := range prefetcherNames() {
		sys, err := build(prefetchers.MustNew(name))
		if err != nil {
			return fmt.Errorf("step probe %s: %w", name, err)
		}
		sys.Advance(warm)
		sp := root.child("sim.advance")
		start := time.Now()
		sys.Advance(steps)
		m["sim.step_ns."+name] = float64(time.Since(start)) / float64(steps)
		sp.end()
		if name == "none" {
			continue
		}
		d := newTimedPF(prefetchers.MustNew(name))
		sys, err = build(d.prefetcher())
		if err != nil {
			return fmt.Errorf("train probe %s: %w", name, err)
		}
		sys.Advance(warm)
		d.reset()
		sp = root.child("sim.advance")
		sys.Advance(steps)
		sp.end()
		if d.sampled == 0 || d.trains == 0 {
			return fmt.Errorf("train probe %s: no Train calls sampled", name)
		}
		self := float64(d.selfNs)/float64(d.sampled) - clockNs*(1+float64(d.sampledIssues)/float64(d.sampled))
		m["prefetch.train_ns."+name] = max(self, 0)
		m["prefetch.issue_per_train."+name] = float64(d.issues) / float64(d.trains)
	}
	return nil
}

// ingestProbe fills traceset.ingest_s: the median time to ingest recs
// into a fresh registry.
func ingestProbe(root *open, dir string, recs []trace.Record, m map[string]float64) error {
	var times []float64
	for i := 0; i < setupReps; i++ {
		reg, err := traceset.Open(filepath.Join(dir, fmt.Sprintf("probe-reg-%d", i)), traceset.Options{})
		if err != nil {
			return err
		}
		sp := root.child("traceset.ingest")
		start := time.Now()
		_, _, err = reg.IngestRecords(recs, trace.FormatGZTR)
		times = append(times, time.Since(start).Seconds())
		sp.end()
		if err != nil {
			return fmt.Errorf("ingest probe: %w", err)
		}
	}
	m["traceset.ingest_s"] = median(times)
	return nil
}

// clockCost returns the median cost of one clock read. A sampled Train
// carries about one read of timing overhead beyond what the decorator
// can subtract itself, and so does each issue timed inside it.
func clockCost() float64 {
	samples := make([]float64, 0, 101)
	for i := 0; i < 101; i++ {
		start := time.Now()
		for j := 0; j < 1000; j++ {
			probeSink += uint64(time.Now().UnixNano())
		}
		samples = append(samples, float64(time.Since(start))/1000)
	}
	return median(samples)
}

// trainSampleEvery is how often the decorator times a Train call; the
// other calls run undisturbed but for two counter increments.
const trainSampleEvery = 8

// timedPF decorates a prefetcher to time its Train self time (minus the
// time spent in the simulator's issue callback) on every
// trainSampleEvery-th call and to count Train calls and issued requests.
// It forwards the optional eviction and bandwidth hooks, so the wrapped
// prefetcher sees exactly the calls it would see unwrapped.
type timedPF struct {
	inner prefetch.Prefetcher
	issue prefetch.IssueFunc // the simulator's callback for this call
	count prefetch.IssueFunc // bound once: d.onIssue

	trains, issues, sampled, sampledIssues uint64
	sampling                               bool
	selfNs, inIssueNs                      int64
}

func newTimedPF(inner prefetch.Prefetcher) *timedPF {
	d := &timedPF{inner: inner}
	d.count = d.onIssue
	return d
}

// prefetcher returns d as the simulator should see it: with Introspect
// only when the wrapped prefetcher has it.
func (d *timedPF) prefetcher() prefetch.Prefetcher {
	if _, ok := d.inner.(prefetch.Introspector); ok {
		return timedIntroPF{d}
	}
	return d
}

func (d *timedPF) reset() {
	d.trains, d.issues, d.sampled, d.sampledIssues = 0, 0, 0, 0
	d.selfNs = 0
}

func (d *timedPF) Name() string { return d.inner.Name() }

func (d *timedPF) Train(a prefetch.Access, issue prefetch.IssueFunc) {
	d.trains++
	d.issue = issue
	if d.trains%trainSampleEvery != 0 {
		d.inner.Train(a, d.count)
		return
	}
	d.sampling, d.inIssueNs = true, 0
	start := time.Now()
	d.inner.Train(a, d.count)
	el := int64(time.Since(start))
	d.sampling = false
	d.selfNs += el - d.inIssueNs
	d.sampled++
}

func (d *timedPF) onIssue(r prefetch.Request) {
	d.issues++
	if !d.sampling {
		d.issue(r)
		return
	}
	d.sampledIssues++
	start := time.Now()
	d.issue(r)
	d.inIssueNs += int64(time.Since(start))
}

func (d *timedPF) EvictNotify(vline uint64) { d.inner.EvictNotify(vline) }

func (d *timedPF) EvictDetail(vline uint64, wasUseless bool) {
	if eo, ok := d.inner.(prefetch.EvictObserver); ok {
		eo.EvictDetail(vline, wasUseless)
	}
}

func (d *timedPF) SetBandwidthProbe(f func() float64) {
	if ba, ok := d.inner.(prefetch.BandwidthAware); ok {
		ba.SetBandwidthProbe(f)
	}
}

type timedIntroPF struct{ *timedPF }

func (d timedIntroPF) Introspect() prefetch.Introspection {
	return d.inner.(prefetch.Introspector).Introspect()
}

// layerProbes runs the record-access, step, Train and ingest probes on
// one catalogue trace of the workload at scale sc.
func layerProbes(e *env, sc engine.Scale, name string, m map[string]float64) error {
	root := e.rec.root("bench.probes", true)
	defer root.end()
	recs, err := workload.Materialize(name, sc.TraceLen)
	if err != nil {
		return err
	}
	mapped, err := mappedCopy(e.dir, recs)
	if err != nil {
		return err
	}
	recordAccessProbe(trace.RecSlice(recs), mapped, m)
	if err := stepProbe(root, engineConfig(sc), trace.RecSlice(recs), 100_000, m); err != nil {
		return err
	}
	return ingestProbe(root, e.dir, recs, m)
}
