package workload

import (
	"sync"
	"testing"

	"repro/internal/trace"
)

// mustRecords is MaterializeRecords for known-good names.
func mustRecords(t testing.TB, name string, n int) trace.Records {
	t.Helper()
	slab, err := MaterializeRecords(name, n)
	if err != nil {
		t.Fatal(err)
	}
	return slab
}

func TestMaterializeSharesOneSlab(t *testing.T) {
	ResetTraceCache()
	a := mustRecords(t, "lbm-1274", 2_000)
	b := mustRecords(t, "lbm-1274", 2_000)
	if a != b {
		t.Error("repeated MaterializeRecords returned distinct slabs")
	}
	if cols, ok := a.(*trace.Columns); !ok || cols.Mapped() {
		t.Errorf("catalogue slab is %T, want heap *trace.Columns", a)
	}
	c := mustRecords(t, "lbm-1274", 3_000) // different length = different key
	if c.Len() != 3_000 || a == c {
		t.Error("different length shared a slab")
	}

	st := TraceCacheStats()
	if st.Entries != 2 || st.Misses != 2 || st.Hits != 1 {
		t.Errorf("stats = %+v, want 2 entries, 2 misses, 1 hit", st)
	}
	if want := int64(5_000) * trace.ColumnarRecordBytes; st.Bytes != want {
		t.Errorf("bytes = %d, want %d", st.Bytes, want)
	}
}

// TestMaterializeReturnsCopy: Materialize hands each caller its own
// slice, read from the one cached slab — writing to it changes neither
// the slab nor the next caller's copy, and costs no generation.
func TestMaterializeReturnsCopy(t *testing.T) {
	ResetTraceCache()
	a := MustMaterialize("lbm-1274", 2_000)
	want := a[0]
	a[0] = trace.Record{}
	b := MustMaterialize("lbm-1274", 2_000)
	if &a[0] == &b[0] || b[0] != want {
		t.Error("Materialize shared its slice with an earlier caller")
	}
	if got := mustRecords(t, "lbm-1274", 2_000).At(0); got != want {
		t.Errorf("cached slab record 0 = %+v after a copy was written, want %+v", got, want)
	}
	if st := TraceCacheStats(); st.Entries != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 1 entry / 1 miss", st)
	}
}

// TestMaterializeHitZeroAlloc pins the cache-hit path every job after the
// first takes: serving an already-resident slab allocates nothing.
func TestMaterializeHitZeroAlloc(t *testing.T) {
	ResetTraceCache()
	defer ResetTraceCache()
	mustRecords(t, "bwaves_s-2609", 2_000)
	if n := testing.AllocsPerRun(200, func() { mustRecords(t, "bwaves_s-2609", 2_000) }); n != 0 {
		t.Errorf("materialize cache hit allocates %.1f times per call, want 0", n)
	}
}

func TestMaterializeMatchesGenerate(t *testing.T) {
	ResetTraceCache()
	got := MustMaterialize("fotonik3d_s-8225", 1_500)
	want := MustGenerate("fotonik3d_s-8225", 1_500)
	if len(got) != len(want) {
		t.Fatalf("lengths differ: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("record %d differs: %+v vs %+v", i, got[i], want[i])
		}
	}
}

func TestMaterializeUnknownNameNotCached(t *testing.T) {
	ResetTraceCache()
	if _, err := Materialize("no-such-trace", 100); err == nil {
		t.Fatal("unknown trace did not error")
	}
	st := TraceCacheStats()
	if st.Entries != 0 || st.Bytes != 0 {
		t.Errorf("failed materialization left %+v behind", st)
	}
}

// TestMaterializeSingleFlight hammers one key from many goroutines (run
// under -race in CI) and asserts the trace was generated exactly once
// and every caller observed the same slab.
func TestMaterializeSingleFlight(t *testing.T) {
	ResetTraceCache()
	const workers = 16
	slabs := make([]trace.Records, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			slabs[w] = mustRecords(t, "cassandra-p0c0", 4_000)
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if slabs[w] != slabs[0] {
			t.Fatalf("goroutine %d saw a different slab", w)
		}
	}
	st := TraceCacheStats()
	if st.Misses != 1 {
		t.Errorf("misses = %d, want exactly 1 generation", st.Misses)
	}
	if st.Hits != workers-1 {
		t.Errorf("hits = %d, want %d", st.Hits, workers-1)
	}
}

func TestResetTraceCache(t *testing.T) {
	MustMaterialize("lbm-1274", 1_000)
	ResetTraceCache()
	st := TraceCacheStats()
	if st.Entries != 0 || st.Hits != 0 || st.Misses != 0 || st.Bytes != 0 || st.Evictions != 0 {
		t.Errorf("stats after reset = %+v, want all zero", st)
	}
}

// TestTraceCacheBudgetEvictsLRU bounds the cache to two slabs' worth of
// bytes and touches three traces: the least-recently-used one must be
// evicted, the footprint must fit the budget, and a re-request must
// regenerate (miss) rather than serve a dropped slab.
func TestTraceCacheBudgetEvictsLRU(t *testing.T) {
	ResetTraceCache()
	defer ResetTraceCache()
	const n = 1_000
	slab := int64(n) * trace.ColumnarRecordBytes
	SetTraceCacheBudget(2 * slab)

	mustRecords(t, "lbm-1274", n)         // LRU after the touch below
	mustRecords(t, "mcf_s-1554", n)       //
	mustRecords(t, "lbm-1274", n)         // touch: mcf is now LRU
	mustRecords(t, "fotonik3d_s-8225", n) // over budget: evicts mcf

	st := TraceCacheStats()
	if st.Entries != 2 || st.Bytes != 2*slab {
		t.Errorf("after eviction: %d entries / %d bytes, want 2 / %d", st.Entries, st.Bytes, 2*slab)
	}
	if st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}

	missesBefore := st.Misses
	mustRecords(t, "lbm-1274", n) // still resident: hit
	if TraceCacheStats().Misses != missesBefore {
		t.Error("lbm-1274 was evicted but should have been recently used")
	}
	mustRecords(t, "mcf_s-1554", n) // evicted: regenerates
	if got := TraceCacheStats().Misses; got != missesBefore+1 {
		t.Errorf("misses = %d, want %d (mcf should regenerate)", got, missesBefore+1)
	}
}

// TestTraceCacheBudgetKeepsNewestSlab: a single slab larger than the
// whole budget must still be handed to its caller and stay resident (the
// alternative is regenerating it on every request), while everything else
// is evicted.
func TestTraceCacheBudgetKeepsNewestSlab(t *testing.T) {
	ResetTraceCache()
	defer ResetTraceCache()
	SetTraceCacheBudget(100) // smaller than any slab
	recs := MustMaterialize("lbm-1274", 1_000)
	if len(recs) != 1_000 {
		t.Fatalf("materialized %d records", len(recs))
	}
	st := TraceCacheStats()
	if st.Entries != 1 {
		t.Errorf("entries = %d, want the newest slab retained", st.Entries)
	}
	MustMaterialize("mcf_s-1554", 1_000)
	st = TraceCacheStats()
	if st.Entries != 1 || st.Evictions != 1 {
		t.Errorf("after second oversized slab: %+v, want 1 entry / 1 eviction", st)
	}
}

// TestSetTraceCacheBudgetEvictsImmediately: lowering the budget under the
// current footprint evicts without waiting for the next Materialize.
func TestSetTraceCacheBudgetEvictsImmediately(t *testing.T) {
	ResetTraceCache()
	defer ResetTraceCache()
	MustMaterialize("lbm-1274", 1_000)
	MustMaterialize("mcf_s-1554", 1_000)
	SetTraceCacheBudget(int64(1_000)*trace.ColumnarRecordBytes + 1)
	st := TraceCacheStats()
	if st.Entries != 1 || st.Evictions != 1 {
		t.Errorf("after budget drop: %+v, want 1 entry / 1 eviction", st)
	}
}

// fakeSource serves one in-memory trace under a fixed name.
type fakeSource struct {
	name string
	recs []trace.Record
}

func (f *fakeSource) Exists(name string) bool { return name == f.name }
func (f *fakeSource) Load(name string, n int) ([]trace.Record, error) {
	if name != f.name {
		return nil, errTestNoTrace
	}
	if n <= 0 || n > len(f.recs) {
		n = len(f.recs)
	}
	return f.recs[:n], nil
}

var errTestNoTrace = errorString("no such trace")

type errorString string

func (e errorString) Error() string { return string(e) }

// TestSourceResolution: a registered Source's traces materialize, cache,
// and Exists like catalogue names, and unknown names still fail.
func TestSourceResolution(t *testing.T) {
	ResetTraceCache()
	ResetSources()
	defer ResetSources()
	defer ResetTraceCache()

	name := IngestedName("deadbeef")
	recs := []trace.Record{{PC: 1, Addr: 64}, {PC: 2, Addr: 128}, {PC: 3, Addr: 192}}
	RegisterSource(&fakeSource{name: name, recs: recs})

	if !Exists(name) {
		t.Fatalf("Exists(%q) = false with a source registered", name)
	}
	if Exists(IngestedName("cafef00d")) {
		t.Error("Exists accepted a name no source serves")
	}

	got := MustMaterialize(name, 2)
	if len(got) != 2 || got[0] != recs[0] {
		t.Fatalf("materialized %v", got)
	}
	// Longer than the source trace: every record, no error (the simulator
	// loops short traces).
	all := MustMaterialize(name, 10)
	if len(all) != 3 {
		t.Fatalf("n beyond trace length returned %d records, want 3", len(all))
	}
	st := TraceCacheStats()
	if st.Misses != 2 {
		t.Errorf("misses = %d, want 2 (two lengths)", st.Misses)
	}

	InvalidateTrace(name)
	if TraceCacheStats().Entries != 0 {
		t.Error("InvalidateTrace left slabs resident")
	}
	if TraceCacheStats().Evictions != 0 {
		t.Error("InvalidateTrace counted as eviction")
	}
}

func TestTraceDigest(t *testing.T) {
	if d, ok := TraceDigest("lbm-1274"); ok || d != "" {
		t.Errorf("catalogue name has digest %q", d)
	}
	if d, ok := TraceDigest(IngestedName("abc123")); !ok || d != "abc123" {
		t.Errorf("ingested digest = %q, %v", d, ok)
	}
	if _, ok := TraceDigest("ingested:"); ok {
		t.Error("empty address parsed as a digest")
	}
	if _, ok := TraceDigest("no-such-trace"); ok {
		t.Error("unknown plain name has a digest")
	}
}
