// Fixed-bucket latency histograms in Prometheus exposition shape:
// cumulative _bucket{le="..."} samples in ascending bound order with a
// terminal +Inf bucket, plus _sum and _count. Observe is lock-free
// (atomics only); rendering cumulates on the fly.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// DefBuckets covers sub-millisecond cache hits through multi-second
// sweeps — the serving stack's full latency range.
var DefBuckets = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// WaitBuckets extends DefBuckets for durations that legitimately reach
// minutes: queue wait under load, lease hold across big work units.
var WaitBuckets = append(append([]float64(nil), DefBuckets...), 30, 60, 120)

// Histogram is one fixed-bucket histogram family. A nil *Histogram
// drops observations.
type Histogram struct {
	name   string
	help   string
	bounds []float64 // ascending upper bounds; +Inf is implicit

	counts  []atomic.Uint64 // per-bucket (non-cumulative); last slot is +Inf
	sumBits atomic.Uint64   // float64 bits, CAS-accumulated
	count   atomic.Uint64
}

// NewHistogram builds a histogram with the given ascending bucket upper
// bounds (seconds).
func NewHistogram(name, help string, bounds []float64) *Histogram {
	h := &Histogram{name: name, help: help, bounds: append([]float64(nil), bounds...)}
	h.counts = make([]atomic.Uint64, len(bounds)+1)
	return h
}

// Observe records one value (typically seconds).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// WriteProm renders the full family: HELP, TYPE and samples.
func (h *Histogram) WriteProm(w io.Writer) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", h.name, h.help, h.name)
	h.writeSamples(w, "")
}

// writeSamples emits cumulative buckets plus _sum/_count. labels, when
// non-empty, is a rendered `key="value"` prefix for vec children.
func (h *Histogram) writeSamples(w io.Writer, labels string) {
	cum := uint64(0)
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", h.name, labels, formatBound(b), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", h.name, labels, cum)
	sum := math.Float64frombits(h.sumBits.Load())
	if labels == "" {
		fmt.Fprintf(w, "%s_sum %g\n%s_count %d\n", h.name, sum, h.name, h.count.Load())
	} else {
		ls := strings.TrimSuffix(labels, ",")
		fmt.Fprintf(w, "%s_sum{%s} %g\n%s_count{%s} %d\n", h.name, ls, sum, h.name, ls, h.count.Load())
	}
}

func formatBound(b float64) string { return strconv.FormatFloat(b, 'g', -1, 64) }

// HistogramVec is a histogram family keyed by one label (route, phase).
// Children are created on first observation. A nil *HistogramVec drops
// observations.
type HistogramVec struct {
	name   string
	help   string
	label  string
	bounds []float64

	mu       sync.RWMutex
	children map[string]*Histogram
}

// NewHistogramVec builds a label-keyed histogram family.
func NewHistogramVec(name, help, label string, bounds []float64) *HistogramVec {
	return &HistogramVec{
		name:     name,
		help:     help,
		label:    label,
		bounds:   append([]float64(nil), bounds...),
		children: make(map[string]*Histogram),
	}
}

// Observe records v (seconds) under the child for the given label value.
func (v *HistogramVec) Observe(labelValue string, x float64) {
	if v == nil {
		return
	}
	v.mu.RLock()
	h := v.children[labelValue]
	v.mu.RUnlock()
	if h == nil {
		v.mu.Lock()
		h = v.children[labelValue]
		if h == nil {
			h = NewHistogram(v.name, "", v.bounds)
			v.children[labelValue] = h
		}
		v.mu.Unlock()
	}
	h.Observe(x)
}

// WriteProm renders HELP/TYPE plus every child's samples, label values
// sorted for a stable exposition.
func (v *HistogramVec) WriteProm(w io.Writer) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", v.name, v.help, v.name)
	v.mu.RLock()
	keys := make([]string, 0, len(v.children))
	for k := range v.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		// strconv.Quote covers the three escapes Prometheus label values
		// need (backslash, quote, newline); our values are route patterns
		// and phase names, printable ASCII throughout.
		v.children[k].writeSamples(w, v.label+"="+strconv.Quote(k)+",")
	}
	v.mu.RUnlock()
}

// Metrics bundles the serving stack's latency histograms so one wiring
// point (gazeserve main, or server.New's default) hands each subsystem
// the family it feeds. Any field may be nil.
type Metrics struct {
	// HTTPDuration is per-route HTTP request latency,
	// gaze_http_request_duration_seconds{route="GET /jobs/{id}"}.
	HTTPDuration *HistogramVec
	// EnginePhase is engine phase latency,
	// gaze_engine_phase_duration_seconds{phase="materialize"|...}.
	EnginePhase *HistogramVec
	// JobQueueWait is submit→dispatch wait, gaze_jobs_queue_wait_seconds.
	JobQueueWait *Histogram
	// LeaseHold is lease grant→settle/requeue hold time,
	// gaze_cluster_lease_hold_seconds.
	LeaseHold *Histogram
}

// NewMetrics builds the standard bundle.
func NewMetrics() *Metrics {
	return &Metrics{
		HTTPDuration: NewHistogramVec("gaze_http_request_duration_seconds",
			"HTTP request latency by matched route pattern.", "route", DefBuckets),
		EnginePhase: NewHistogramVec("gaze_engine_phase_duration_seconds",
			"Engine phase latency (queue_wait, materialize, simulate, store_commit, shard).", "phase", DefBuckets),
		JobQueueWait: NewHistogram("gaze_jobs_queue_wait_seconds",
			"Time jobs spent queued between submission and dispatch.", WaitBuckets),
		LeaseHold: NewHistogram("gaze_cluster_lease_hold_seconds",
			"Work-unit lease hold time from grant to settle or expiry requeue.", WaitBuckets),
	}
}
