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
	if got := hashKey(rec.Key); got != addr {
		return "", nil, fmt.Errorf("engine: telemetry document key hashes to %s, not the claimed address %s",
			got[:12], addr[:12])
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
// and payload. Documents inside the fast parser's subset (docparse.go) —
// every document the canonical encoder writes — skip encoding/json;
// anything else takes json.Unmarshal, so every input decodes exactly as it
// would there.
func decodeTelemetryRecord(data []byte) (telemetryRecord, error) {
	rec, ok := parseTelemetryRecord(data)
	if !ok {
		// A variable of its own: only the fallback's escapes to the heap.
		var slow telemetryRecord
		if err := json.Unmarshal(data, &slow); err != nil {
			return telemetryRecord{}, fmt.Errorf("engine: decoding telemetry document: %v", err)
		}
		rec = slow
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

// parseTelemetryRecord is the fast decoder behind decodeTelemetryRecord;
// ok is false for a document outside the subset.
func parseTelemetryRecord(data []byte) (rec telemetryRecord, ok bool) {
	p := docParser{b: data}
	if !p.telemetryRecord(&rec) || !p.end() {
		return telemetryRecord{}, false
	}
	return rec, true
}

func (p *docParser) telemetryRecord(rec *telemetryRecord) bool {
	return p.object(func(key []byte) (uint, bool) {
		switch string(key) {
		case "version":
			return 0, p.int(&rec.Version)
		case "key":
			return 1, p.keyString(&rec.Key)
		case "telemetry":
			rec.Telemetry = new(sim.Telemetry)
			return 2, p.telemetry(rec.Telemetry)
		}
		return 0, false
	})
}

func (p *docParser) telemetry(t *sim.Telemetry) bool {
	return p.object(func(key []byte) (uint, bool) {
		switch string(key) {
		case "interval":
			return 0, p.uint(&t.Interval)
		case "cores":
			return 1, list(p, &t.Cores, 0, p.core)
		}
		return 0, false
	})
}

func (p *docParser) core(c *sim.CoreTelemetry) bool {
	return p.object(func(key []byte) (uint, bool) {
		switch string(key) {
		case "prefetcher":
			return 0, p.text(&c.Prefetcher)
		case "samples":
			// One allocation: samples hold no arrays, so the objects
			// ahead of the first closing bracket are the samples.
			return 1, list(p, &c.Samples, p.opens(), p.sample)
		case "introspection":
			c.Introspection = new(prefetch.Introspection)
			return 2, p.introspection(c.Introspection)
		}
		return 0, false
	})
}

func (p *docParser) sample(s *sim.IntervalSample) bool {
	return p.object(func(key []byte) (uint, bool) {
		switch string(key) {
		case "start":
			return 0, p.uint(&s.Start)
		case "end":
			return 1, p.uint(&s.End)
		case "ipc":
			return 2, p.float(&s.IPC)
		case "l1_mpki":
			return 3, p.float(&s.L1MPKI)
		case "l2_mpki":
			return 4, p.float(&s.L2MPKI)
		case "llc_mpki":
			return 5, p.float(&s.LLCMPKI)
		case "prefetches_issued":
			return 6, p.uint(&s.PrefetchesIssued)
		case "useful_prefetches":
			return 7, p.uint(&s.UsefulPrefetches)
		case "late_prefetches":
			return 8, p.uint(&s.LatePrefetches)
		case "accuracy":
			return 9, p.float(&s.Accuracy)
		case "coverage":
			return 10, p.float(&s.Coverage)
		case "pq_occupancy":
			return 11, p.int(&s.PQOccupancy)
		case "dram_row_hit_rate":
			return 12, p.float(&s.DRAMRowHitRate)
		}
		return 0, false
	})
}

func (p *docParser) introspection(in *prefetch.Introspection) bool {
	return p.object(func(key []byte) (uint, bool) {
		switch string(key) {
		case "pattern_entries":
			return 0, p.int(&in.PatternEntries)
		case "pattern_capacity":
			return 1, p.int(&in.PatternCapacity)
		case "stream_hits":
			return 2, p.uint(&in.StreamHits)
		case "pattern_hits":
			return 3, p.uint(&in.PatternHits)
		case "reuse_histogram":
			return 4, p.histogram(&in.ReuseHistogram)
		}
		return 0, false
	})
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
