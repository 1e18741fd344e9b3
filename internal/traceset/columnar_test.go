package traceset

import (
	"os"
	"testing"

	"repro/internal/trace"
)

// TestIngestWritesColumnarSidecar: committing an entry writes a valid
// .cols slab beside the .gztr, inspectable through Columnar and loadable
// through LoadSlab as an mmap-backed Columns whose records match the
// canonical stream.
func TestIngestWritesColumnarSidecar(t *testing.T) {
	reg := openTestRegistry(t)
	recs := testRecords(t, 1_000)
	m, _, err := reg.IngestRecords(recs, trace.FormatGZTR)
	if err != nil {
		t.Fatal(err)
	}

	ci, err := reg.Columnar(m.Address)
	if err != nil {
		t.Fatal(err)
	}
	if !ci.Present || !ci.Valid {
		t.Fatalf("columnar info after ingest: %+v", ci)
	}
	if want := int64(trace.ColumnarSize(len(recs))); ci.Bytes != want {
		t.Errorf("slab bytes = %d, want %d", ci.Bytes, want)
	}
	if ci.PCBytes != 8*int64(len(recs)) || ci.KindBytes != int64(len(recs)) {
		t.Errorf("plane sizes = %+v", ci)
	}

	cols, err := reg.LoadSlab(m.Name(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if cols.Len() != len(recs) {
		t.Fatalf("slab has %d records, want %d", cols.Len(), len(recs))
	}
	for i, want := range recs {
		if got := cols.At(i); got != want {
			t.Fatalf("record %d = %+v, want %+v", i, got, want)
		}
	}

	// A truncated view shares the mapping.
	short, err := reg.LoadSlab(m.Name(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if short.Len() != 10 || short.At(9) != recs[9] {
		t.Errorf("prefix slab: len %d", short.Len())
	}
}

// TestLoadSlabHeapFallback: a missing or damaged .cols file silently
// falls back to the heap-decoded record stream — the sidecar is derived
// data, never a correctness dependency.
func TestLoadSlabHeapFallback(t *testing.T) {
	reg := openTestRegistry(t)
	recs := testRecords(t, 500)
	m, _, err := reg.IngestRecords(recs, trace.FormatGZTR)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(reg.colsPath(m.Address)); err != nil {
		t.Fatal(err)
	}

	if ci, err := reg.Columnar(m.Address); err != nil || ci.Present {
		t.Fatalf("columnar info after removal: %+v, %v", ci, err)
	}
	slab, err := reg.LoadSlab(m.Name(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if slab.Mapped() {
		t.Fatal("LoadSlab mapped a slab that does not exist")
	}
	if slab.Len() != len(recs) || slab.At(7) != recs[7] {
		t.Fatalf("fallback slab: len %d", slab.Len())
	}

	// Damage (truncate) instead of remove: Columnar flags it invalid and
	// LoadSlab still falls back.
	m2, _, err := reg.IngestRecords(testRecords(t, 400), trace.FormatChampSim)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(reg.colsPath(m2.Address), 40); err != nil {
		t.Fatal(err)
	}
	if ci, _ := reg.Columnar(m2.Address); !ci.Present || ci.Valid {
		t.Fatalf("truncated slab reported %+v", ci)
	}
	if slab, err := reg.LoadSlab(m2.Name(), 0); err != nil || slab.Len() != 400 {
		t.Fatalf("fallback after damage: %v", err)
	}
}

// TestBuildColumnarBackfill is the `gazetrace migrate` core: a registry
// entry without a valid slab gets one rebuilt from its record stream;
// entries already valid are skipped.
func TestBuildColumnarBackfill(t *testing.T) {
	reg := openTestRegistry(t)
	m, _, err := reg.IngestRecords(testRecords(t, 300), trace.FormatGZTR)
	if err != nil {
		t.Fatal(err)
	}

	// Fresh ingest: already valid, nothing to do.
	if created, err := reg.BuildColumnar(m.Address); err != nil || created {
		t.Fatalf("BuildColumnar on a valid slab: created=%v err=%v", created, err)
	}

	if err := os.Remove(reg.colsPath(m.Address)); err != nil {
		t.Fatal(err)
	}
	created, err := reg.BuildColumnar(m.Address)
	if err != nil || !created {
		t.Fatalf("backfill: created=%v err=%v", created, err)
	}
	ci, err := reg.Columnar(m.Address)
	if err != nil || !ci.Present || !ci.Valid {
		t.Fatalf("columnar info after backfill: %+v, %v", ci, err)
	}
	if slab, err := reg.LoadSlab(m.Name(), 0); err != nil || slab.Len() != 300 {
		t.Fatalf("LoadSlab after backfill: %v", err)
	}

	if _, err := reg.BuildColumnar("00ff"); err == nil {
		t.Error("BuildColumnar accepted an unknown address")
	}
}

// TestDeleteRemovesColumnar: deleting an entry removes the derived slab
// with it — a later re-ingest must rebuild, not resurrect.
func TestDeleteRemovesColumnar(t *testing.T) {
	reg := openTestRegistry(t)
	m, _, err := reg.IngestRecords(testRecords(t, 200), trace.FormatGZTR)
	if err != nil {
		t.Fatal(err)
	}
	path := reg.colsPath(m.Address)
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("no slab after ingest: %v", err)
	}
	if err := reg.Delete(m.Address); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("slab survived Delete: %v", err)
	}
}
