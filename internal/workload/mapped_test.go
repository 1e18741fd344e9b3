package workload

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/trace"
)

// slabSource is a fakeSource that also serves mmap-backed columnar slabs
// — the SlabSource shape the trace registry implements.
type slabSource struct {
	fakeSource
	cols *trace.Columns
}

var _ SlabSource = (*slabSource)(nil)

func (s *slabSource) LoadSlab(name string, n int) (*trace.Columns, error) {
	if name != s.name {
		return nil, errTestNoTrace
	}
	return s.cols.Prefix(n), nil
}

func mapRecords(t *testing.T, recs []trace.Record) *trace.Columns {
	t.Helper()
	path := filepath.Join(t.TempDir(), "slab.cols")
	if err := os.WriteFile(path, trace.EncodeColumnar(recs), 0o644); err != nil {
		t.Fatal(err)
	}
	cols, err := trace.MapColumnar(path)
	if err != nil {
		t.Skipf("mmap unavailable: %v", err)
	}
	return cols
}

// TestMaterializeRecordsMapped pins the acceptance criterion for mapped
// slabs: materializing through a SlabSource keeps the heap gauge
// (trace_cache_bytes) flat while trace_cache_mapped_bytes reflects the
// mapping, the mapped entry survives a heap-budget squeeze, and
// InvalidateTrace releases the accounting.
func TestMaterializeRecordsMapped(t *testing.T) {
	ResetTraceCache()
	ResetSources()
	defer ResetSources()
	defer ResetTraceCache()

	recs := make([]trace.Record, 100)
	for i := range recs {
		recs[i] = trace.Record{PC: uint64(i), Addr: uint64(i) * 64, NonMem: uint16(i % 3)}
	}
	cols := mapRecords(t, recs)
	name := IngestedName("feedface")
	RegisterSource(&slabSource{fakeSource: fakeSource{name: name, recs: recs}, cols: cols})

	slab, err := MaterializeRecords(name, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := slab.(*trace.Columns); !ok || !got.Mapped() {
		t.Fatalf("MaterializeRecords returned %T, want a mapped *trace.Columns", slab)
	}
	st := TraceCacheStats()
	if st.Bytes != 0 {
		t.Errorf("heap bytes = %d after a mapped materialization, want 0", st.Bytes)
	}
	if want := int64(trace.ColumnarSize(100)); st.MappedBytes != want {
		t.Errorf("mapped bytes = %d, want %d", st.MappedBytes, want)
	}

	// Same key hits; a different length is a distinct mapped entry.
	if _, err := MaterializeRecords(name, 100); err != nil {
		t.Fatal(err)
	}
	if st := TraceCacheStats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 1/1", st.Hits, st.Misses)
	}

	// A heap-budget squeeze must not evict the mapped entry: its bytes
	// are kernel page cache, not cache-budget heap.
	SetTraceCacheBudget(1)
	defer SetTraceCacheBudget(0)
	if st := TraceCacheStats(); st.Entries != 1 || st.MappedBytes == 0 {
		t.Errorf("budget squeeze dropped the mapped entry: %+v", st)
	}

	InvalidateTrace(name)
	if st := TraceCacheStats(); st.Entries != 0 || st.MappedBytes != 0 {
		t.Errorf("InvalidateTrace left mapped accounting: %+v", st)
	}
}

// TestMaterializeRecordsHeapFallback: a plain Source (no LoadSlab) serves
// MaterializeRecords its Load records copied into heap planes, counted
// against the heap budget.
func TestMaterializeRecordsHeapFallback(t *testing.T) {
	ResetTraceCache()
	ResetSources()
	defer ResetSources()
	defer ResetTraceCache()

	name := IngestedName("cafe0001")
	recs := []trace.Record{{PC: 1, Addr: 64}, {PC: 2, Addr: 128}}
	RegisterSource(&fakeSource{name: name, recs: recs})

	slab, err := MaterializeRecords(name, 2)
	if err != nil {
		t.Fatal(err)
	}
	if slab.Len() != 2 || slab.At(1) != recs[1] {
		t.Fatalf("heap-fallback slab = %v", slab)
	}
	if cols, ok := slab.(*trace.Columns); !ok || cols.Mapped() {
		t.Errorf("heap-fallback slab is %T, want heap *trace.Columns", slab)
	}
	st := TraceCacheStats()
	if st.MappedBytes != 0 {
		t.Errorf("heap fallback accounted %d mapped bytes", st.MappedBytes)
	}
	if want := int64(2) * trace.ColumnarRecordBytes; st.Bytes != want {
		t.Errorf("heap fallback accounted %d heap bytes, want %d", st.Bytes, want)
	}
}
