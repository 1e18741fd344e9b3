// Telemetry documents: the persisted (and on-wire) form of one run's
// interval timeline, stored content-addressed beside its result record.
// Telemetry is derived data, like a trace's columnar sidecar: the
// document lives at the result's address with a .timeline extension, is
// written atomically, is garbage-collected with its result, and never
// participates in content addressing — a store with telemetry armed
// holds byte-identical result records to one without.
//
// Export and the local save path share one encoder, so a timeline
// computed on a cluster worker lands on the coordinator's disk
// byte-identical to one computed locally — the same store-equality
// guarantee result documents carry.
package engine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"

	"repro/internal/prefetch"
	"repro/internal/sim"
)

// TelemetrySchemaVersion stamps persisted telemetry documents; bump it
// when the sample schema or concatenation rule changes observable bytes.
const TelemetrySchemaVersion = 1

// telemetryRecord is the on-disk schema. Key is the canonical job
// encoding, stored in full like result records so a document verifies
// against the address it claims.
type telemetryRecord struct {
	Version   int            `json:"version"`
	Key       string         `json:"key"`
	Telemetry *sim.Telemetry `json:"telemetry"`
}

// encodeTelemetryRecord renders the canonical document bytes. Every
// producer (local save, worker export) goes through here.
func encodeTelemetryRecord(key string, tel *sim.Telemetry) ([]byte, error) {
	return json.MarshalIndent(telemetryRecord{
		Version: TelemetrySchemaVersion, Key: key, Telemetry: tel,
	}, "", "\t")
}

// ExportTelemetry encodes a collected timeline as a self-describing
// document: the exact bytes the computing engine persisted locally.
func ExportTelemetry(key string, tel *sim.Telemetry) ([]byte, error) {
	data, err := encodeTelemetryRecord(key, tel)
	if err != nil {
		return nil, fmt.Errorf("engine: encoding telemetry document: %w", err)
	}
	return data, nil
}

// ImportTelemetry decodes and verifies a telemetry document uploaded
// under a content address: the schema version must match and the
// embedded key must hash to addr — the same untrusted-upload check
// ImportResult applies, so a document that passes can only describe the
// job the address names.
func ImportTelemetry(addr string, data []byte) (key string, tel *sim.Telemetry, err error) {
	if !isAddress(addr) {
		return "", nil, fmt.Errorf("engine: %q is not a content address", addr)
	}
	rec, err := decodeTelemetryRecord(data)
	if err != nil {
		return "", nil, err
	}
	if hashKey(rec.Key) != addr {
		return "", nil, fmt.Errorf("engine: telemetry document key hashes to %s, not the claimed address %s",
			hashKey(rec.Key)[:12], addr[:12])
	}
	return rec.Key, rec.Telemetry, nil
}

// telemetryHeader is the exact leading bytes encodeTelemetryRecord emits.
var telemetryHeader = versionHeader(TelemetrySchemaVersion)

// CheckTelemetryVersion reports, as DecodeTelemetry would, whether a
// persisted telemetry document is of another schema version, for a
// consumer that serves the bytes verbatim. A document the canonical
// encoder wrote is recognized from its leading bytes without decoding;
// any other is decoded, and the decoder's error returned.
func CheckTelemetryVersion(doc []byte) error {
	if bytes.HasPrefix(doc, telemetryHeader) {
		return nil
	}
	_, err := DecodeTelemetry(doc)
	return err
}

// DecodeTelemetry parses a persisted telemetry document without address
// verification — for consumers (CSV rendering, analytics overlays) that
// already trust the bytes because they came from the local store. Like
// ImportTelemetry it rejects a document of another schema version: a
// store shared with a newer binary may hold sidecars this process cannot
// read as v1 rows.
func DecodeTelemetry(data []byte) (*sim.Telemetry, error) {
	rec, err := decodeTelemetryRecord(data)
	if err != nil {
		return nil, err
	}
	return rec.Telemetry, nil
}

// decodeTelemetryRecord decodes a document and checks its schema version
// and payload. Documents inside the fast parser's subset — every document
// the canonical encoder writes — skip encoding/json; anything else takes
// json.Unmarshal, so every input decodes exactly as it would there.
func decodeTelemetryRecord(data []byte) (telemetryRecord, error) {
	rec, ok := parseTelemetryRecord(data)
	if !ok {
		if err := json.Unmarshal(data, &rec); err != nil {
			return telemetryRecord{}, fmt.Errorf("engine: decoding telemetry document: %v", err)
		}
	}
	if rec.Version != TelemetrySchemaVersion {
		return telemetryRecord{}, fmt.Errorf("engine: telemetry document has schema v%d, this process runs v%d",
			rec.Version, TelemetrySchemaVersion)
	}
	if rec.Telemetry == nil {
		return telemetryRecord{}, fmt.Errorf("engine: telemetry document has no telemetry payload")
	}
	return rec, nil
}

// parseTelemetryRecord is the fast decoder behind decodeTelemetryRecord:
// one pass over the bytes, the schema's keys matched as bytes, numbers
// parsed by strconv, no reflection and a fixed number of allocations per
// core. It accepts a strict subset of JSON — keys in exact case and at
// most once per object, no null, no unknown keys, strings of printable
// ASCII without escapes (except the key string, whose \" and \\ escapes
// encoding/json unescapes) — and reports ok=false for anything else, which
// the caller hands to json.Unmarshal. When it accepts, json.Unmarshal
// would succeed with an equal value (FuzzDecodeTelemetry holds it to
// that).
func parseTelemetryRecord(data []byte) (rec telemetryRecord, ok bool) {
	p := docParser{b: data}
	ok = p.record(&rec)
	p.space()
	if !ok || p.pos != len(p.b) {
		return telemetryRecord{}, false
	}
	return rec, true
}

// docParser is the fast decoder's cursor. Every method returns false as
// soon as the input leaves the accepted subset.
type docParser struct {
	b   []byte
	pos int
}

// Byte classes: JSON whitespace, and the bytes a string may hold inside
// the subset (printable ASCII but the quote and the backslash).
var isSpace, isPlain [256]bool

func init() {
	for _, c := range []byte(" \t\n\r") {
		isSpace[c] = true
	}
	for c := 0x20; c <= 0x7e; c++ {
		isPlain[c] = c != '"' && c != '\\'
	}
}

// space skips JSON whitespace.
func (p *docParser) space() {
	b, i := p.b, p.pos
	for i < len(b) && isSpace[b[i]] {
		i++
	}
	p.pos = i
}

// consume skips whitespace and then the byte c, which must come next.
func (p *docParser) consume(c byte) bool {
	p.space()
	if p.pos < len(p.b) && p.b[p.pos] == c {
		p.pos++
		return true
	}
	return false
}

// next steps to the next member or element of an object or array whose
// opening byte is consumed: more is false (and ok true) at the closing
// byte end, and the separating comma is consumed between items.
func (p *docParser) next(end byte, first bool) (more, ok bool) {
	p.space()
	if p.pos == len(p.b) {
		return false, false
	}
	switch c := p.b[p.pos]; {
	case c == end:
		p.pos++
		return false, true
	case first:
		return true, true
	case c == ',':
		p.pos++
		return true, true
	}
	return false, false
}

// member reads the next member's key and its colon; more is false at
// the object's closing brace (ok true) or on a malformed member (ok
// false).
func (p *docParser) member(first bool) (key []byte, more, ok bool) {
	if more, ok = p.next('}', first); !more {
		return nil, false, ok
	}
	if key, ok = p.str(); !ok || !p.consume(':') {
		return nil, false, false
	}
	return key, true, true
}

// str reads a string of printable ASCII without escapes.
func (p *docParser) str() ([]byte, bool) {
	if !p.consume('"') {
		return nil, false
	}
	i := p.pos
	for i < len(p.b) && isPlain[p.b[i]] {
		i++
	}
	if i == len(p.b) || p.b[i] != '"' {
		return nil, false
	}
	s := p.b[p.pos:i]
	p.pos = i + 1
	return s, true
}

// text reads a string value inside the subset.
func (p *docParser) text(dst *string) bool {
	s, ok := p.str()
	*dst = string(s)
	return ok
}

// keyString reads the record's key: printable ASCII whose only escapes
// are \" and \\. The canonical job encoding always carries escaped
// quotes, so the token is unescaped by encoding/json itself.
func (p *docParser) keyString(dst *string) bool {
	p.space()
	start := p.pos
	if !p.consume('"') {
		return false
	}
	for i := p.pos; i < len(p.b); i++ {
		switch c := p.b[i]; {
		case c == '"':
			p.pos = i + 1
			return json.Unmarshal(p.b[start:p.pos], dst) == nil
		case c == '\\':
			if i+1 == len(p.b) || (p.b[i+1] != '"' && p.b[i+1] != '\\') {
				return false
			}
			i++
		case c < 0x20 || c > 0x7e:
			return false
		}
	}
	return false
}

// number reads one token of the JSON number grammar.
func (p *docParser) number() ([]byte, bool) {
	p.space()
	b, i := p.b, p.pos
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		i = digits(b, i)
	default:
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		if j := digits(b, i+1); j > i+1 {
			i = j
		} else {
			return nil, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if j := digits(b, i); j > i {
			i = j
		} else {
			return nil, false
		}
	}
	tok := b[p.pos:i]
	p.pos = i
	return tok, true
}

// digits returns the index of the first non-digit at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		i++
	}
	return i
}

// uint, int and float parse a number as encoding/json does for the
// field's type; a strconv error (a fraction in an integer field, a sign
// on an unsigned one, a value out of range) leaves the subset.
func (p *docParser) uint(dst *uint64) bool {
	tok, ok := p.number()
	if !ok {
		return false
	}
	v, err := strconv.ParseUint(string(tok), 10, 64)
	*dst = v
	return err == nil
}

func (p *docParser) int(dst *int) bool {
	tok, ok := p.number()
	if !ok {
		return false
	}
	v, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
	*dst = int(v)
	return err == nil
}

func (p *docParser) float(dst *float64) bool {
	tok, ok := p.number()
	if !ok {
		return false
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	*dst = v
	return err == nil
}

// once marks field bit f seen, failing on a repeated key.
func once(seen *uint16, f uint) bool {
	if *seen&(1<<f) != 0 {
		return false
	}
	*seen |= 1 << f
	return true
}

func (p *docParser) record(rec *telemetryRecord) bool {
	if !p.consume('{') {
		return false
	}
	var seen uint16
	for first := true; ; first = false {
		key, more, ok := p.member(first)
		if !more {
			return ok
		}
		switch string(key) {
		case "version":
			ok = once(&seen, 0) && p.int(&rec.Version)
		case "key":
			ok = once(&seen, 1) && p.keyString(&rec.Key)
		case "telemetry":
			rec.Telemetry = new(sim.Telemetry)
			ok = once(&seen, 2) && p.telemetry(rec.Telemetry)
		default:
			ok = false
		}
		if !ok {
			return false
		}
	}
}

func (p *docParser) telemetry(t *sim.Telemetry) bool {
	if !p.consume('{') {
		return false
	}
	var seen uint16
	for first := true; ; first = false {
		key, more, ok := p.member(first)
		if !more {
			return ok
		}
		switch string(key) {
		case "interval":
			ok = once(&seen, 0) && p.uint(&t.Interval)
		case "cores":
			ok = once(&seen, 1) && p.cores(&t.Cores)
		default:
			ok = false
		}
		if !ok {
			return false
		}
	}
}

// cores reads the per-core array. An empty array decodes to an empty,
// non-nil slice, as encoding/json leaves it.
func (p *docParser) cores(dst *[]sim.CoreTelemetry) bool {
	if !p.consume('[') {
		return false
	}
	cores := []sim.CoreTelemetry{}
	for first := true; ; first = false {
		more, ok := p.next(']', first)
		if !more {
			*dst = cores
			return ok
		}
		cores = append(cores, sim.CoreTelemetry{})
		if !p.core(&cores[len(cores)-1]) {
			return false
		}
	}
}

func (p *docParser) core(c *sim.CoreTelemetry) bool {
	if !p.consume('{') {
		return false
	}
	var seen uint16
	for first := true; ; first = false {
		key, more, ok := p.member(first)
		if !more {
			return ok
		}
		switch string(key) {
		case "prefetcher":
			ok = once(&seen, 0) && p.text(&c.Prefetcher)
		case "samples":
			ok = once(&seen, 1) && p.samples(&c.Samples)
		case "introspection":
			c.Introspection = new(prefetch.Introspection)
			ok = once(&seen, 2) && p.introspection(c.Introspection)
		default:
			ok = false
		}
		if !ok {
			return false
		}
	}
}

// samples reads a core's sample array into one allocation, sized by the
// objects opened before the array's first closing bracket (samples hold
// no arrays). The count is capped by what the bytes could hold, so
// hostile input allocates no more than encoding/json would for it.
func (p *docParser) samples(dst *[]sim.IntervalSample) bool {
	if !p.consume('[') {
		return false
	}
	n := 0
	if end := bytes.IndexByte(p.b[p.pos:], ']'); end > 0 {
		n = min(bytes.Count(p.b[p.pos:p.pos+end], []byte{'{'}), end/2)
	}
	samples := make([]sim.IntervalSample, 0, n)
	for first := true; ; first = false {
		more, ok := p.next(']', first)
		if !more {
			*dst = samples
			return ok
		}
		samples = append(samples, sim.IntervalSample{})
		if !p.sample(&samples[len(samples)-1]) {
			return false
		}
	}
}

func (p *docParser) sample(s *sim.IntervalSample) bool {
	if !p.consume('{') {
		return false
	}
	var seen uint16
	for first := true; ; first = false {
		key, more, ok := p.member(first)
		if !more {
			return ok
		}
		switch string(key) {
		case "start":
			ok = once(&seen, 0) && p.uint(&s.Start)
		case "end":
			ok = once(&seen, 1) && p.uint(&s.End)
		case "ipc":
			ok = once(&seen, 2) && p.float(&s.IPC)
		case "l1_mpki":
			ok = once(&seen, 3) && p.float(&s.L1MPKI)
		case "l2_mpki":
			ok = once(&seen, 4) && p.float(&s.L2MPKI)
		case "llc_mpki":
			ok = once(&seen, 5) && p.float(&s.LLCMPKI)
		case "prefetches_issued":
			ok = once(&seen, 6) && p.uint(&s.PrefetchesIssued)
		case "useful_prefetches":
			ok = once(&seen, 7) && p.uint(&s.UsefulPrefetches)
		case "late_prefetches":
			ok = once(&seen, 8) && p.uint(&s.LatePrefetches)
		case "accuracy":
			ok = once(&seen, 9) && p.float(&s.Accuracy)
		case "coverage":
			ok = once(&seen, 10) && p.float(&s.Coverage)
		case "pq_occupancy":
			ok = once(&seen, 11) && p.int(&s.PQOccupancy)
		case "dram_row_hit_rate":
			ok = once(&seen, 12) && p.float(&s.DRAMRowHitRate)
		default:
			ok = false
		}
		if !ok {
			return false
		}
	}
}

func (p *docParser) introspection(in *prefetch.Introspection) bool {
	if !p.consume('{') {
		return false
	}
	var seen uint16
	for first := true; ; first = false {
		key, more, ok := p.member(first)
		if !more {
			return ok
		}
		switch string(key) {
		case "pattern_entries":
			ok = once(&seen, 0) && p.int(&in.PatternEntries)
		case "pattern_capacity":
			ok = once(&seen, 1) && p.int(&in.PatternCapacity)
		case "stream_hits":
			ok = once(&seen, 2) && p.uint(&in.StreamHits)
		case "pattern_hits":
			ok = once(&seen, 3) && p.uint(&in.PatternHits)
		case "reuse_histogram":
			ok = once(&seen, 4) && p.histogram(&in.ReuseHistogram)
		default:
			ok = false
		}
		if !ok {
			return false
		}
	}
}

// histogram reads up to len(h) counts; encoding/json leaves missing
// trailing buckets zero, as the fresh array already is.
func (p *docParser) histogram(h *[16]uint64) bool {
	if !p.consume('[') {
		return false
	}
	for i := 0; ; i++ {
		more, ok := p.next(']', i == 0)
		if !more {
			return ok
		}
		if i == len(h) || !p.uint(&h[i]) {
			return false
		}
	}
}

// AdoptTelemetry installs an externally produced telemetry document
// under its canonical key: into the in-process memo and the persisted
// store when one is configured. The raw bytes are adopted verbatim —
// never re-encoded — so worker-produced documents stay byte-identical on
// the coordinator's disk. Callers must have verified the document
// (ImportTelemetry); AdoptTelemetry trusts it.
func (e *Engine) AdoptTelemetry(key string, doc []byte) {
	addr := hashKey(key)
	e.mu.Lock()
	if e.telemetryMemo == nil {
		e.telemetryMemo = make(map[string][]byte)
	}
	if old, ok := e.telemetryMemo[addr]; ok {
		e.telemetryMemoBytes -= int64(len(old))
	}
	e.telemetryMemo[addr] = doc
	e.telemetryMemoBytes += int64(len(doc))
	e.mu.Unlock()
	if e.store != nil {
		e.store.PutTelemetry(key, doc) //nolint:errcheck // best-effort, like run's Put
	}
}

// saveTelemetry encodes and adopts a locally collected timeline. Errors
// are swallowed: telemetry is derived data and must never fail a run.
func (e *Engine) saveTelemetry(key string, tel *sim.Telemetry) {
	doc, err := encodeTelemetryRecord(key, tel)
	if err != nil {
		return
	}
	e.AdoptTelemetry(key, doc)
}

// Telemetry returns the persisted timeline document for a content
// address, from the in-process memo or the store. The bytes are the
// canonical document — servable (and ETag-able) verbatim.
func (e *Engine) Telemetry(addr string) ([]byte, bool) {
	e.mu.Lock()
	doc, ok := e.telemetryMemo[addr]
	e.mu.Unlock()
	if ok {
		return doc, true
	}
	if e.store != nil {
		return e.store.GetTelemetry(addr)
	}
	return nil, false
}

// Computing reports whether the engine is executing the job the address
// names right now — the signal behind the timeline API's 409-until-done
// answer for in-flight jobs.
func (e *Engine) Computing(addr string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	for key := range e.inflight {
		if hashKey(key) == addr {
			return true
		}
	}
	return false
}

// TelemetryStats summarizes the telemetry subsystem for /stats and
// /metrics: the armed sampling interval (0 = disabled) and how many
// documents exist with their byte footprint — on disk when a store is
// attached, in the process memo otherwise.
type TelemetryStats struct {
	Interval  uint64 `json:"interval"`
	Documents int64  `json:"documents"`
	Bytes     int64  `json:"bytes"`
}

// TelemetryStats returns a snapshot of the telemetry counters.
func (e *Engine) TelemetryStats() TelemetryStats {
	st := TelemetryStats{Interval: e.telemetryInterval}
	if e.store != nil {
		st.Documents = e.store.telemetryDocs.Load()
		st.Bytes = e.store.telemetryBytes.Load()
		return st
	}
	e.mu.Lock()
	st.Documents = int64(len(e.telemetryMemo))
	st.Bytes = e.telemetryMemoBytes
	e.mu.Unlock()
	return st
}
