// Package obs is the dependency-free observability layer: lightweight
// spans with context propagation (W3C traceparent-style), an in-process
// ring buffer plus append-only NDJSON export, fixed-bucket latency
// histograms rendered in Prometheus text format, a per-job phase-timing
// collector, and slog helpers that stamp trace IDs onto log lines.
//
// Everything is nil-safe and allocation-free when disabled: obs.Start
// returns a nil *Span unless a Tracer or Timings collector is present in
// the context, and every method on a nil *Span, *Tracer, *Histogram and
// *Timings is a no-op. Instrumentation is expected at phase granularity
// (per request, per shard) — never inside the simulator's
// per-record step loop, whose zero-alloc pin must keep passing with
// tracing enabled.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one key=val span attribute.
type Attr struct {
	Key   string
	Value string
}

// String builds a string attribute.
func String(k, v string) Attr { return Attr{Key: k, Value: v} }

// Int builds an integer attribute.
func Int(k string, v int) Attr { return Attr{Key: k, Value: strconv.Itoa(v)} }

// SpanContext is the propagatable identity of a span: hex-encoded
// 16-byte trace ID and 8-byte span ID, the two fields a traceparent
// header carries.
type SpanContext struct {
	TraceID string
	SpanID  string
}

// Valid reports whether the context carries well-formed IDs.
func (sc SpanContext) Valid() bool {
	return len(sc.TraceID) == 32 && len(sc.SpanID) == 16 && isHex(sc.TraceID) && isHex(sc.SpanID)
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Span is one timed operation. Fields are set by Start and frozen by
// End; a nil *Span (tracing disabled) accepts every method as a no-op.
type Span struct {
	TraceID  string
	SpanID   string
	ParentID string
	Name     string
	Start    time.Time
	Duration time.Duration
	Attrs    []Attr

	tracer  *Tracer
	timings *Timings
}

// spanWire is the JSON shape shared by the NDJSON log and
// GET /debug/traces.
type spanWire struct {
	TraceID    string            `json:"trace_id"`
	SpanID     string            `json:"span_id"`
	ParentID   string            `json:"parent_id,omitempty"`
	Name       string            `json:"name"`
	Start      time.Time         `json:"start"`
	DurationUS int64             `json:"duration_us"`
	Attrs      map[string]string `json:"attrs,omitempty"`
}

// MarshalJSON renders the span in the wire shape used by both the
// NDJSON span log and GET /debug/traces.
func (s Span) MarshalJSON() ([]byte, error) {
	w := spanWire{
		TraceID:    s.TraceID,
		SpanID:     s.SpanID,
		ParentID:   s.ParentID,
		Name:       s.Name,
		Start:      s.Start,
		DurationUS: s.Duration.Microseconds(),
	}
	if len(s.Attrs) > 0 {
		w.Attrs = make(map[string]string, len(s.Attrs))
		for _, a := range s.Attrs {
			w.Attrs[a.Key] = a.Value
		}
	}
	return json.Marshal(w)
}

// SetAttr adds (or overwrites) a key=val attribute.
func (s *Span) SetAttr(k, v string) {
	if s == nil {
		return
	}
	for i := range s.Attrs {
		if s.Attrs[i].Key == k {
			s.Attrs[i].Value = v
			return
		}
	}
	s.Attrs = append(s.Attrs, Attr{Key: k, Value: v})
}

// SetName renames the span — used by the HTTP middleware, which only
// learns the matched route pattern after the mux has dispatched.
func (s *Span) SetName(name string) {
	if s != nil {
		s.Name = name
	}
}

// Context returns the span's propagatable identity (zero for nil).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.TraceID, SpanID: s.SpanID}
}

// End freezes the span's duration, feeds the phase-timing collector (if
// one was in scope at Start), and hands the span to the tracer's ring
// buffer and NDJSON log. Call exactly once.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.Duration = time.Since(s.Start)
	s.timings.Add(s.Name, s.Duration)
	if s.tracer != nil {
		s.tracer.record(s)
	}
}

// Tracer collects finished spans: the most recent RingSize in a ring
// buffer (served by GET /debug/traces) and, when Log is set, every span
// as one NDJSON line.
type Tracer struct {
	mu   sync.Mutex
	ring []Span
	head int // next write slot
	n    int // occupancy

	logMu sync.Mutex
	logW  io.Writer

	started  atomic.Uint64
	finished atomic.Uint64
	dropped  atomic.Uint64
	logBytes atomic.Int64
}

// TracerOptions configures NewTracer.
type TracerOptions struct {
	// RingSize caps the in-memory span buffer (default 512). The oldest
	// span is dropped (and counted) when the ring is full.
	RingSize int
	// Log, when set, receives every finished span as one NDJSON line.
	Log io.Writer
}

// NewTracer builds a tracer.
func NewTracer(o TracerOptions) *Tracer {
	if o.RingSize <= 0 {
		o.RingSize = 512
	}
	return &Tracer{ring: make([]Span, o.RingSize), logW: o.Log}
}

func (t *Tracer) record(s *Span) {
	t.finished.Add(1)
	t.mu.Lock()
	t.ring[t.head] = *s
	t.head = (t.head + 1) % len(t.ring)
	if t.n < len(t.ring) {
		t.n++
	} else {
		t.dropped.Add(1)
	}
	t.mu.Unlock()
	if t.logW != nil {
		line, err := json.Marshal(*s)
		if err != nil {
			return
		}
		line = append(line, '\n')
		t.logMu.Lock()
		n, _ := t.logW.Write(line) // best effort: a full disk must not fail the request
		t.logMu.Unlock()
		t.logBytes.Add(int64(n))
	}
}

// Observe records an already-measured operation as a finished span —
// for call sites where start and end are observed in different stack
// frames (e.g. a lease granted in one HTTP exchange and settled in
// another). The span joins parent's trace when parent is valid.
func (t *Tracer) Observe(parent SpanContext, name string, start time.Time, d time.Duration, attrs ...Attr) {
	if t == nil {
		return
	}
	s := Span{
		TraceID:  parent.TraceID,
		ParentID: parent.SpanID,
		SpanID:   newID(8),
		Name:     name,
		Start:    start,
		Duration: d,
		Attrs:    attrs,
	}
	if !parent.Valid() {
		s.TraceID, s.ParentID = newID(16), ""
	}
	t.started.Add(1)
	t.record(&s)
}

// Recent returns up to limit spans from the ring buffer, newest first
// (all of them when limit <= 0).
func (t *Tracer) Recent(limit int) []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.n
	if limit > 0 && limit < n {
		n = limit
	}
	out := make([]Span, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, t.ring[(t.head-i+len(t.ring))%len(t.ring)])
	}
	return out
}

// TracerStats is the tracer's counter snapshot, shaped for the /stats
// "obs" block.
type TracerStats struct {
	SpansStarted  uint64 `json:"spans_started"`
	SpansFinished uint64 `json:"spans_finished"`
	SpansDropped  uint64 `json:"spans_dropped"`
	RingOccupancy int    `json:"ring_occupancy"`
	TraceLogBytes int64  `json:"trace_log_bytes"`
}

// Stats snapshots the tracer's counters (zero value for nil).
func (t *Tracer) Stats() TracerStats {
	if t == nil {
		return TracerStats{}
	}
	t.mu.Lock()
	occ := t.n
	t.mu.Unlock()
	return TracerStats{
		SpansStarted:  t.started.Load(),
		SpansFinished: t.finished.Load(),
		SpansDropped:  t.dropped.Load(),
		RingOccupancy: occ,
		TraceLogBytes: t.logBytes.Load(),
	}
}

// Timings accumulates span durations by name — one collector per job,
// carried in the job's context, aggregated into the job's phase-timing
// breakdown. Durations for spans that ran concurrently (parallel
// shards) add up and may exceed wall time.
type Timings struct {
	mu sync.Mutex
	d  map[string]time.Duration
}

// NewTimings builds an empty collector.
func NewTimings() *Timings { return &Timings{d: make(map[string]time.Duration)} }

// Add accumulates d under name (no-op on nil).
func (t *Timings) Add(name string, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.d[name] += d
	t.mu.Unlock()
}

// Snapshot copies the accumulated durations.
func (t *Timings) Snapshot() map[string]time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]time.Duration, len(t.d))
	for k, v := range t.d {
		out[k] = v
	}
	return out
}

type ctxKey int

const (
	tracerKey ctxKey = iota
	spanKey
	remoteKey
	timingsKey
)

// WithTracer arms a context: spans started under it are recorded by t.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, tracerKey, t)
}

// TracerFrom returns the context's tracer, or nil.
func TracerFrom(ctx context.Context) *Tracer {
	t, _ := ctx.Value(tracerKey).(*Tracer)
	return t
}

// WithRemoteParent marks sc as the parent for the next span started
// under ctx — how a worker's spans join the coordinator's trace.
func WithRemoteParent(ctx context.Context, sc SpanContext) context.Context {
	if !sc.Valid() {
		return ctx
	}
	return context.WithValue(ctx, remoteKey, sc)
}

// WithTimings attaches a phase-duration collector: every span ended
// under ctx adds its duration to tm, keyed by span name.
func WithTimings(ctx context.Context, tm *Timings) context.Context {
	if tm == nil {
		return ctx
	}
	return context.WithValue(ctx, timingsKey, tm)
}

// TimingsFrom returns the context's collector, or nil.
func TimingsFrom(ctx context.Context) *Timings {
	t, _ := ctx.Value(timingsKey).(*Timings)
	return t
}

// FromContext returns the current span, or nil.
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey).(*Span)
	return s
}

// SpanContextFrom resolves the trace identity visible in ctx: the
// current span's, else a remote parent's, else zero.
func SpanContextFrom(ctx context.Context) SpanContext {
	if s := FromContext(ctx); s != nil {
		return s.Context()
	}
	sc, _ := ctx.Value(remoteKey).(SpanContext)
	return sc
}

// Start opens a span named name as a child of the context's current
// span (or remote parent, or as a new trace root) and returns a context
// carrying it. When the context has neither a tracer nor a timings
// collector the fast path returns (ctx, nil) — two map-free Value
// lookups and no allocation.
func Start(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	tr, _ := ctx.Value(tracerKey).(*Tracer)
	tm, _ := ctx.Value(timingsKey).(*Timings)
	if tr == nil && tm == nil {
		return ctx, nil
	}
	s := &Span{Name: name, Start: time.Now(), Attrs: attrs, tracer: tr, timings: tm}
	if parent := FromContext(ctx); parent != nil {
		s.TraceID, s.ParentID = parent.TraceID, parent.SpanID
	} else if rc, ok := ctx.Value(remoteKey).(SpanContext); ok && rc.Valid() {
		s.TraceID, s.ParentID = rc.TraceID, rc.SpanID
	} else {
		s.TraceID = newID(16)
	}
	s.SpanID = newID(8)
	if tr != nil {
		tr.started.Add(1)
	}
	return context.WithValue(ctx, spanKey, s), s
}

// newID returns n random bytes hex-encoded.
func newID(n int) string {
	var buf [16]byte
	b := buf[:n]
	if _, err := rand.Read(b); err != nil {
		// crypto/rand never fails on supported platforms; a zero ID is
		// still well-formed if it somehow does.
		for i := range b {
			b[i] = 0
		}
	}
	return hex.EncodeToString(b)
}

// TraceparentHeader is the propagation header name (W3C trace-context
// style: "00-<trace-id>-<span-id>-01").
const TraceparentHeader = "traceparent"

// Traceparent formats sc as a traceparent header value ("" if invalid).
func Traceparent(sc SpanContext) string {
	if !sc.Valid() {
		return ""
	}
	return "00-" + sc.TraceID + "-" + sc.SpanID + "-01"
}

// ContextTraceparent formats the trace identity visible in ctx ("" when
// none) — what the coordinator stamps onto work units.
func ContextTraceparent(ctx context.Context) string {
	return Traceparent(SpanContextFrom(ctx))
}

// ParseTraceparent parses a traceparent header value.
func ParseTraceparent(v string) (SpanContext, bool) {
	// version(2) - trace(32) - span(16) - flags(2)
	if len(v) != 2+1+32+1+16+1+2 || v[2] != '-' || v[35] != '-' || v[52] != '-' {
		return SpanContext{}, false
	}
	sc := SpanContext{TraceID: v[3:35], SpanID: v[36:52]}
	if !isHex(v[:2]) || !isHex(v[53:]) || !sc.Valid() {
		return SpanContext{}, false
	}
	return sc, true
}

// Inject stamps ctx's trace identity onto an outbound request's headers
// (no-op when ctx carries no span).
func Inject(ctx context.Context, h http.Header) {
	if tp := ContextTraceparent(ctx); tp != "" {
		h.Set(TraceparentHeader, tp)
	}
}

// Extract reads a remote trace identity from inbound request headers.
func Extract(h http.Header) (SpanContext, bool) {
	return ParseTraceparent(h.Get(TraceparentHeader))
}
