package workload

import (
	"sort"
	"sync"

	"repro/internal/trace"
)

// This file implements the process-wide materialized-trace cache. Every
// entry point that simulates — the engine's sweep shards, gazeserve
// handlers, benchmarks — asks for traces through MaterializeRecords, so N
// prefetchers x M config points over one trace generate it exactly once
// per process instead of once per job. Entries are immutable
// *trace.Columns slabs keyed by {name, length}: catalogue traces and
// plain Sources are generated (or loaded) and copied into heap planes at
// trace.ColumnarRecordBytes a record, SlabSources hand back an
// mmap-backed view of the same layout. Population is single-flight, so
// concurrent shards requesting the same trace block on one generation
// instead of racing duplicates.
//
// The cache is byte-budget bounded: synthetic slabs are small and
// regenerate cheaply, but once arbitrarily large ingested traces join the
// catalogue an unbounded cache is a memory liability in a long-lived
// server. SetTraceCacheBudget caps the resident heap footprint; over
// budget, ready entries are evicted least-recently-used first (in-flight
// entries and the most recent slab are never evicted — callers already
// hold references, eviction only drops the map's, so evicted slabs stay
// valid for whoever has them and are simply re-materialized on next
// request). Mapped slabs are accounted separately (MappedBytes): their
// memory belongs to the page cache, which the kernel already reclaims
// under pressure, so they never count against — nor are they evicted to
// honor — the heap budget.

// CacheStats is a point-in-time snapshot of the materialized-trace cache.
type CacheStats struct {
	// Entries is the number of materialized traces resident in memory.
	Entries int `json:"entries"`
	// Hits counts materialize calls served an existing (or in-flight)
	// slab; Misses counts calls that generated one.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Bytes is the resident heap record-slab footprint — what the byte
	// budget bounds.
	Bytes int64 `json:"bytes"`
	// MappedBytes is the total size of mmap-backed slabs' file mappings;
	// page-cache-resident, not heap, and not subject to the byte budget.
	MappedBytes int64 `json:"mapped_bytes"`
	// Evictions counts slabs dropped to honor the byte budget.
	Evictions uint64 `json:"evictions"`
}

// traceKey identifies one cache slot.
type traceKey struct {
	name string
	n    int
}

// traceEntry is one cache slot. ready is closed once slab/err are final;
// readers that find an in-flight entry block on it — the single-flight
// discipline that keeps shards from generating duplicates. done and
// lastUse drive LRU eviction and are guarded by traceCache.mu.
type traceEntry struct {
	ready   chan struct{}
	slab    *trace.Columns
	err     error
	done    bool
	bytes   int64 // heap footprint, counted against the budget
	mapped  int64 // mapping size, tracked but never budget-evicted
	lastUse uint64
}

var traceCache = struct {
	mu          sync.Mutex
	entries     map[traceKey]*traceEntry
	hits        uint64
	misses      uint64
	bytes       int64
	mappedBytes int64
	evictions   uint64
	budget      int64  // max resident heap bytes; <= 0 means unbounded
	clock       uint64 // logical LRU clock, bumped per touch
}{entries: make(map[traceKey]*traceEntry)}

// SetTraceCacheBudget bounds the cache's resident heap slab footprint to
// at most budget bytes (<= 0 restores unbounded). Lowering the budget
// evicts immediately. The budget is process-wide, like the cache itself.
// Mapped slabs are exempt: the kernel, not this budget, bounds the page
// cache.
func SetTraceCacheBudget(budget int64) {
	traceCache.mu.Lock()
	defer traceCache.mu.Unlock()
	traceCache.budget = budget
	evictLocked(nil)
}

// evictLocked drops ready heap entries, least-recently-used first, until
// the heap footprint fits the budget. One pass: the candidates are
// collected and ordered once, then evicted in LRU order until the
// footprint fits — not re-scanned per victim. keep (the entry just
// materialized, when set) is exempt: evicting the slab its caller is
// about to receive would make one oversized trace thrash the whole cache
// on every request. Mapped entries are skipped — they hold no heap.
func evictLocked(keep *traceEntry) {
	if traceCache.budget <= 0 || traceCache.bytes <= traceCache.budget {
		return
	}
	type victim struct {
		key traceKey
		e   *traceEntry
	}
	victims := make([]victim, 0, len(traceCache.entries))
	for k, e := range traceCache.entries {
		if e.done && e != keep && e.bytes > 0 {
			victims = append(victims, victim{k, e})
		}
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i].e.lastUse < victims[j].e.lastUse })
	for _, v := range victims {
		if traceCache.bytes <= traceCache.budget {
			return
		}
		delete(traceCache.entries, v.key)
		traceCache.bytes -= v.e.bytes
		traceCache.evictions++
	}
}

// materializeSlab is the single-flight core under MaterializeRecords:
// one cache slot per key, exactly one generation per cold key, heap and
// mapped bytes accounted apart. hit reports whether an existing (or
// in-flight) slab served the call — the engine's materialize spans record
// it as a cache=hit|miss attribute.
func materializeSlab(key traceKey, gen func() (*trace.Columns, error)) (_ *trace.Columns, hit bool, _ error) {
	traceCache.mu.Lock()
	if e, ok := traceCache.entries[key]; ok {
		traceCache.hits++
		traceCache.clock++
		e.lastUse = traceCache.clock
		traceCache.mu.Unlock()
		<-e.ready
		return e.slab, true, e.err
	}
	e := &traceEntry{ready: make(chan struct{})}
	traceCache.entries[key] = e
	traceCache.misses++
	traceCache.mu.Unlock()

	e.slab, e.err = gen()

	traceCache.mu.Lock()
	if cur, ok := traceCache.entries[key]; ok && cur == e {
		// The identity check keeps a ResetTraceCache racing an in-flight
		// generation from corrupting the byte accounting of the new map.
		if e.err != nil {
			// Don't cache failures (unknown names): drop the slot so the
			// map and Entries only ever hold materialized traces.
			delete(traceCache.entries, key)
		} else {
			e.done = true
			e.bytes, e.mapped = e.slab.HeapBytes(), e.slab.MappedBytes()
			traceCache.clock++
			e.lastUse = traceCache.clock
			traceCache.bytes += e.bytes
			traceCache.mappedBytes += e.mapped
			evictLocked(e)
		}
	}
	traceCache.mu.Unlock()
	close(e.ready)
	return e.slab, false, e.err
}

// Materialize returns a fresh copy of the first n records of the named
// workload, read from the process-wide cache (which generates or
// source-loads the slab on first request). The caller owns the slice.
// Simulation paths use MaterializeRecords, which shares the cached slab
// instead of copying it.
func Materialize(name string, n int) ([]trace.Record, error) {
	slab, err := MaterializeRecords(name, n)
	if err != nil {
		return nil, err
	}
	recs := make([]trace.Record, slab.Len())
	for i := range recs {
		recs[i] = slab.At(i)
	}
	return recs, nil
}

// MaterializeRecords returns the first n records of the named workload
// as the cached, shared and immutable slab, generating (or
// source-loading) it on first request. Names served by a SlabSource get
// whatever columnar slab the source hands back — preferably an
// mmap-backed view, whose bytes live in the page cache instead of the
// heap; catalogue names and plain Sources get heap planes. The engine's
// step loop iterates either through the same accessor. It is safe for
// concurrent use from any number of goroutines.
func MaterializeRecords(name string, n int) (trace.Records, error) {
	slab, _, err := MaterializeRecordsCached(name, n)
	return slab, err
}

// MaterializeRecordsCached is MaterializeRecords plus a cache-hit flag:
// whether the slab was already resident (or in flight) rather than
// generated by this call. Observability-only — the slab is identical
// either way.
func MaterializeRecordsCached(name string, n int) (trace.Records, bool, error) {
	gen := func() (*trace.Columns, error) {
		recs, err := produce(name, n)
		if err != nil {
			return nil, err
		}
		return trace.NewColumns(recs), nil
	}
	if ss, ok := sourceFor(name).(SlabSource); ok {
		gen = func() (*trace.Columns, error) { return ss.LoadSlab(name, n) }
	}
	slab, hit, err := materializeSlab(traceKey{name: name, n: n}, gen)
	if err != nil {
		// A nil *Columns in a non-nil Records would read as a slab.
		return nil, hit, err
	}
	return slab, hit, nil
}

// MustMaterialize is Materialize for known-good names; it panics on error.
func MustMaterialize(name string, n int) []trace.Record {
	recs, err := Materialize(name, n)
	if err != nil {
		panic(err)
	}
	return recs
}

// InvalidateTrace drops every resident slab of the named trace, at any
// length. It is the delete-side hook for registry traces: after an
// ingested trace is removed from disk, its cached slabs must not keep
// serving a name that no longer resolves. In-flight generations are left
// to complete (their callers hold the slab either way). Invalidations are
// not counted as evictions — the budget did not force them.
func InvalidateTrace(name string) {
	traceCache.mu.Lock()
	defer traceCache.mu.Unlock()
	for k, e := range traceCache.entries {
		if k.name == name && e.done {
			delete(traceCache.entries, k)
			traceCache.bytes -= e.bytes
			traceCache.mappedBytes -= e.mapped
		}
	}
}

// TraceCacheStats returns a snapshot of the cache counters.
func TraceCacheStats() CacheStats {
	traceCache.mu.Lock()
	defer traceCache.mu.Unlock()
	return CacheStats{
		Entries:     len(traceCache.entries),
		Hits:        traceCache.hits,
		Misses:      traceCache.misses,
		Bytes:       traceCache.bytes,
		MappedBytes: traceCache.mappedBytes,
		Evictions:   traceCache.evictions,
	}
}

// ResetTraceCache discards every materialized trace, zeroes the counters
// and restores an unbounded budget. It is for tests and benchmarks that
// need a cold cache or a clean counter baseline; callers must ensure no
// materialize call is in flight (in-flight generations complete against
// the old entries and are simply not retained).
func ResetTraceCache() {
	traceCache.mu.Lock()
	defer traceCache.mu.Unlock()
	traceCache.entries = make(map[traceKey]*traceEntry)
	traceCache.hits, traceCache.misses, traceCache.bytes = 0, 0, 0
	traceCache.mappedBytes = 0
	traceCache.evictions = 0
	traceCache.budget = 0
	traceCache.clock = 0
}
