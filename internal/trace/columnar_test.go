package trace

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func testRecords(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			PC:     0x400000 + uint64(i)*4,
			Addr:   0x7f0000000000 + uint64(i)*64,
			NonMem: uint16(i % 300),
			Kind:   Kind(i % 2),
		}
	}
	return recs
}

func TestColumnarRoundTrip(t *testing.T) {
	recs := testRecords(1000)
	data := EncodeColumnar(recs)
	if int64(len(data)) != ColumnarSize(len(recs)) {
		t.Fatalf("encoded %d bytes, want %d", len(data), ColumnarSize(len(recs)))
	}
	cols, err := DecodeColumnar(data)
	if err != nil {
		t.Fatal(err)
	}
	if cols.Len() != len(recs) {
		t.Fatalf("Len = %d, want %d", cols.Len(), len(recs))
	}
	for i, want := range recs {
		if got := cols.At(i); got != want {
			t.Fatalf("At(%d) = %+v, want %+v", i, got, want)
		}
	}
	if cols.Mapped() {
		t.Fatal("in-memory decode reports Mapped")
	}

	// Prefix views share planes and clamp out-of-range lengths.
	p := cols.Prefix(10)
	if p.Len() != 10 || p.At(9) != recs[9] {
		t.Fatalf("Prefix(10): Len %d At(9) %+v", p.Len(), p.At(9))
	}
	if cols.Prefix(0) != cols || cols.Prefix(cols.Len()+1) != cols {
		t.Fatal("Prefix out of range should return the receiver")
	}
}

// TestNewColumns: heap planes built from records read back every field,
// own their memory (the source slice can be reused at once) and cost
// ColumnarRecordBytes a record.
func TestNewColumns(t *testing.T) {
	recs := testRecords(1000)
	cols := NewColumns(recs)
	want := append([]Record(nil), recs...)
	for i := range recs {
		recs[i] = Record{}
	}
	if cols.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", cols.Len(), len(want))
	}
	for i, w := range want {
		if got := cols.At(i); got != w {
			t.Fatalf("At(%d) = %+v, want %+v", i, got, w)
		}
	}
	if cols.Mapped() || cols.MappedBytes() != 0 {
		t.Fatal("heap planes report a mapping")
	}
	if got, w := cols.HeapBytes(), int64(len(want))*ColumnarRecordBytes; got != w {
		t.Fatalf("HeapBytes = %d, want %d", got, w)
	}
	if NewColumns(nil).Len() != 0 {
		t.Fatal("NewColumns(nil) is not empty")
	}
}

func TestColumnarRejectsDamage(t *testing.T) {
	recs := testRecords(16)
	good := EncodeColumnar(recs)

	for name, mutate := range map[string]func([]byte) []byte{
		"short header":  func(b []byte) []byte { return b[:8] },
		"bad magic":     func(b []byte) []byte { b[0] ^= 0xff; return b },
		"bad version":   func(b []byte) []byte { b[6] = 0x7f; return b },
		"truncated":     func(b []byte) []byte { return b[:len(b)-3] },
		"trailing junk": func(b []byte) []byte { return append(b, 0xaa) },
	} {
		data := mutate(append([]byte(nil), good...))
		if _, err := DecodeColumnar(data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

func TestMapColumnar(t *testing.T) {
	recs := testRecords(4096)
	path := filepath.Join(t.TempDir(), "slab.cols")
	if err := os.WriteFile(path, EncodeColumnar(recs), 0o644); err != nil {
		t.Fatal(err)
	}
	cols, err := MapColumnar(path)
	if errors.Is(err, ErrMmapUnsupported) {
		t.Skip("no mmap on this platform")
	}
	if err != nil {
		t.Fatal(err)
	}
	if !cols.Mapped() {
		t.Fatal("mapped slab reports Mapped() == false")
	}
	if cols.MappedBytes() != ColumnarSize(len(recs)) {
		t.Fatalf("MappedBytes = %d, want %d", cols.MappedBytes(), ColumnarSize(len(recs)))
	}
	if cols.HeapBytes() != 0 {
		t.Fatalf("HeapBytes = %d for a mapped slab", cols.HeapBytes())
	}
	for i, want := range recs {
		if got := cols.At(i); got != want {
			t.Fatalf("At(%d) = %+v, want %+v", i, got, want)
		}
	}

	// A reader over the mapped slab replays the identical stream.
	r := NewRecordsReader(cols)
	for i, want := range recs {
		if rec, err := r.Next(); err != nil || rec != want {
			t.Fatalf("read %d = %+v, %v; want %+v", i, rec, err, want)
		}
	}
	if _, err := r.Next(); err == nil {
		t.Fatal("reader past the end should EOF")
	}
	r.Reset()
	if rec, _ := r.Next(); rec != recs[0] {
		t.Fatal("Reset should rewind to record 0")
	}
}

func TestMapColumnarMissing(t *testing.T) {
	if _, err := MapColumnar(filepath.Join(t.TempDir(), "nope.cols")); err == nil {
		t.Fatal("mapping a missing file should fail")
	}
}
