// Result documents: the wire form of one store record, used by the
// cluster subsystem to move computed results between processes. A worker
// exports the record it would have persisted locally; the coordinator
// verifies the document against the content address it was uploaded
// under and adopts it into its own memo and store. Export and Put share
// one encoder, so a result computed remotely lands on the coordinator's
// disk byte-identical to one computed locally — the store-equality
// guarantee cluster tests pin.
package engine

import (
	"encoding/json"
	"fmt"

	"repro/internal/cache"
	"repro/internal/sim"
)

// AddressOfKey returns the content address of a canonical job key — the
// same SHA-256 hex digest Job.ContentAddress computes, for callers that
// already hold the canonical encoding.
func AddressOfKey(key string) string { return hashKey(key) }

// encodeRecord renders the on-disk (and on-wire) form of one store
// record. Store.Put and ExportResult must produce identical bytes for
// identical inputs; sharing this function is what guarantees it.
func encodeRecord(key string, res sim.Result) ([]byte, error) {
	return json.MarshalIndent(record{Version: StoreSchemaVersion, Key: key, Result: res}, "", "\t")
}

// ExportResult encodes a computed result as a self-describing document:
// the exact bytes Store.Put would persist for the same key. The caller
// supplies the canonical job key (Job.CanonicalJSON at the computing
// engine's scale); the document's address is hashKey(key).
func ExportResult(key string, res sim.Result) ([]byte, error) {
	data, err := encodeRecord(key, res)
	if err != nil {
		return nil, fmt.Errorf("engine: encoding result document: %w", err)
	}
	return data, nil
}

// ImportResult decodes and verifies a result document uploaded under a
// content address. It rejects documents whose schema version differs
// from this process's (results are not portable across schema bumps),
// and documents whose embedded key does not hash to addr — the
// verification that makes accepting uploads from untrusted workers safe:
// a document that passes can only describe the work the address names.
func ImportResult(addr string, data []byte) (key string, res sim.Result, err error) {
	if !isAddress(addr) {
		return "", sim.Result{}, fmt.Errorf("engine: %q is not a content address", addr)
	}
	rec, err := decodeRecord(data)
	if err != nil {
		return "", sim.Result{}, err
	}
	if got := hashKey(rec.Key); got != addr {
		return "", sim.Result{}, fmt.Errorf("engine: result document key hashes to %s, not the claimed address %s",
			got[:12], addr[:12])
	}
	return rec.Key, rec.Result, nil
}

// decodeRecord decodes a store record, the one decoder behind Store.Get
// and ImportResult, and checks its schema version. Records inside the
// fast parser's subset (docparse.go) — every record encodeRecord writes —
// skip encoding/json; anything else takes json.Unmarshal, so every input
// decodes exactly as it would there.
func decodeRecord(data []byte) (record, error) {
	rec, ok := parseRecord(data)
	if !ok {
		// A variable of its own: only the fallback's escapes to the heap.
		var slow record
		if err := json.Unmarshal(data, &slow); err != nil {
			return record{}, fmt.Errorf("engine: decoding result document: %v", err)
		}
		rec = slow
	}
	if rec.Version != StoreSchemaVersion {
		return record{}, fmt.Errorf("engine: result document has store schema v%d, this process runs v%d",
			rec.Version, StoreSchemaVersion)
	}
	return rec, nil
}

// parseRecord is the fast decoder behind decodeRecord; ok is false for a
// record outside the subset.
func parseRecord(data []byte) (rec record, ok bool) {
	p := docParser{b: data}
	if !p.record(&rec) || !p.end() {
		return record{}, false
	}
	return rec, true
}

func (p *docParser) record(rec *record) bool {
	return p.object(func(key []byte) (uint, bool) {
		switch string(key) {
		case "version":
			return 0, p.int(&rec.Version)
		case "key":
			return 1, p.keyString(&rec.Key)
		case "result":
			return 2, p.result(&rec.Result)
		}
		return 0, false
	})
}

// result reads sim.Result. The result schema carries no JSON tags, so
// its keys are the Go field names; encoding/json would also match them in
// any case, which the subset leaves to it.
func (p *docParser) result(r *sim.Result) bool {
	return p.object(func(key []byte) (uint, bool) {
		switch string(key) {
		case "Cores":
			// One allocation: a core holds no arrays and opens three
			// objects (itself, L1D and L2C).
			return 0, list(p, &r.Cores, p.opens()/3, p.coreResult)
		case "LLC":
			return 1, p.cacheStats(&r.LLC)
		case "DRAMRequests":
			return 2, p.uint(&r.DRAMRequests)
		case "DRAMRowHitRate":
			return 3, p.float(&r.DRAMRowHitRate)
		}
		return 0, false
	})
}

func (p *docParser) coreResult(c *sim.CoreResult) bool {
	return p.object(func(key []byte) (uint, bool) {
		switch string(key) {
		case "IPC":
			return 0, p.float(&c.IPC)
		case "Instructions":
			return 1, p.uint(&c.Instructions)
		case "L1D":
			return 2, p.cacheStats(&c.L1D)
		case "L2C":
			return 3, p.cacheStats(&c.L2C)
		case "PrefetchesIssuedL1":
			return 4, p.uint(&c.PrefetchesIssuedL1)
		case "PrefetchesIssuedL2":
			return 5, p.uint(&c.PrefetchesIssuedL2)
		case "PrefetchesRedundant":
			return 6, p.uint(&c.PrefetchesRedundant)
		case "PQDropsFull":
			return 7, p.uint(&c.PQDropsFull)
		case "PQDropsDup":
			return 8, p.uint(&c.PQDropsDup)
		}
		return 0, false
	})
}

func (p *docParser) cacheStats(s *cache.Stats) bool {
	return p.object(func(key []byte) (uint, bool) {
		switch string(key) {
		case "DemandAccesses":
			return 0, p.uint(&s.DemandAccesses)
		case "DemandHits":
			return 1, p.uint(&s.DemandHits)
		case "DemandMisses":
			return 2, p.uint(&s.DemandMisses)
		case "PrefetchFills":
			return 3, p.uint(&s.PrefetchFills)
		case "UsefulPrefetches":
			return 4, p.uint(&s.UsefulPrefetches)
		case "UselessPrefetches":
			return 5, p.uint(&s.UselessPrefetches)
		case "LatePrefetches":
			return 6, p.uint(&s.LatePrefetches)
		case "CoveredMisses":
			return 7, p.uint(&s.CoveredMisses)
		}
		return 0, false
	})
}

// Adopt installs an externally computed result under its canonical key:
// into the memo (so Lookup and coalescing see it immediately) and the
// persisted store when one is configured. Callers must have verified the
// key/result pairing (ImportResult); Adopt trusts it. Cache counters are
// untouched — an adopted result was neither a hit nor a local
// simulation. The store write is best-effort like the engine's own.
func (e *Engine) Adopt(key string, res sim.Result) {
	e.mu.Lock()
	e.memo[key] = res
	e.mu.Unlock()
	if e.store != nil {
		e.store.Put(key, res) //nolint:errcheck // best-effort, like run's Put
	}
}
