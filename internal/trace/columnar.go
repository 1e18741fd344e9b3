// Columnar slab codec: a fixed-width on-disk layout designed to be mapped
// read-only and iterated in place. Where the GZTR stream optimizes for
// transport (varint deltas, gzip), the columnar sidecar optimizes for
// execution — each Record field lives in its own contiguous plane, so a
// page-cache-backed mapping serves the step loop with zero decode work and
// zero resident heap beyond the kernel's own cache.
//
// Layout (all integers little-endian):
//
//	offset  size  field
//	0       6     magic "GZCOLS"
//	6       2     version (uint16, currently 1)
//	8       8     record count n (uint64)
//	16      16    reserved (zero)
//	32      8*n   PC plane      (uint64 each)
//	32+8n   8*n   Addr plane    (uint64 each)
//	32+16n  2*n   NonMem plane  (uint16 each)
//	32+18n  1*n   Kind plane    (byte each)
//
// Plane offsets are naturally aligned for their element width whenever the
// buffer base is 8-aligned (mmap returns page-aligned memory), so on
// little-endian hosts the planes are reinterpreted in place; other hosts —
// or misaligned buffers — fall back to an allocating decode of the same
// bytes. ColumnarVersion guards the layout: readers reject versions they
// do not speak instead of misparsing them.
package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"unsafe"
)

// ColumnarVersion is the on-disk columnar layout version this package
// writes and reads.
const ColumnarVersion = 1

const (
	colsMagic      = "GZCOLS"
	colsHeaderSize = 32
)

// ColumnarRecordBytes is the size of one record across the four planes
// (8 B PC, 8 B Addr, 2 B NonMem, 1 B Kind) — the per-record footprint of
// a Columns slab, mapped or on the heap.
const ColumnarRecordBytes = 8 + 8 + 2 + 1

// ErrMmapUnsupported reports a platform without memory-mapped file
// support; callers fall back to heap decoding.
var ErrMmapUnsupported = errors.New("trace: mmap unsupported on this platform")

// hostLittleEndian reports whether native integer layout matches the
// columnar on-disk encoding, enabling the zero-copy plane views.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// ColumnarSize returns the encoded size of an n-record columnar slab.
func ColumnarSize(n int) int64 {
	return colsHeaderSize + int64(n)*ColumnarRecordBytes
}

// EncodeColumnar serializes recs into the columnar layout.
func EncodeColumnar(recs []Record) []byte {
	n := len(recs)
	buf := make([]byte, ColumnarSize(n))
	copy(buf, colsMagic)
	binary.LittleEndian.PutUint16(buf[6:8], ColumnarVersion)
	binary.LittleEndian.PutUint64(buf[8:16], uint64(n))
	pc := buf[colsHeaderSize:]
	addr := pc[8*n:]
	nonmem := addr[8*n:]
	kind := nonmem[2*n:]
	for i, rec := range recs {
		binary.LittleEndian.PutUint64(pc[8*i:], rec.PC)
		binary.LittleEndian.PutUint64(addr[8*i:], rec.Addr)
		binary.LittleEndian.PutUint16(nonmem[2*i:], rec.NonMem)
		kind[i] = byte(rec.Kind)
	}
	return buf
}

// mapping owns one mmap'd region. Unmapping is driven by garbage
// collection (a finalizer set at map time), never by cache eviction:
// every Columns view holds the mapping alive, so an evicted slab stays
// valid for whoever is still iterating it — the same contract heap slabs
// get from the GC for free.
type mapping struct {
	data []byte
}

// Columns is a columnar record slab: four per-field planes viewed either
// directly over a mapped (or in-memory) encoded buffer, or as heap planes
// (built by NewColumns, or decoded on hosts that cannot reinterpret the
// encoding in place). It implements Records; At reads one element from
// each plane and must stay allocation-free (the zero-alloc step loop runs
// over it). It is the one slab type the trace cache holds.
type Columns struct {
	pc     []uint64
	addr   []uint64
	nonmem []uint16
	kind   []byte
	src    *mapping // nil unless the planes view an mmap'd region
}

// NewColumns copies recs into heap planes, in one pass. The result shares
// nothing with recs, so the caller may drop or reuse the slice: a heap
// slab costs ColumnarRecordBytes a record instead of a Record's 24.
func NewColumns(recs []Record) *Columns {
	n := len(recs)
	c := &Columns{
		pc:     make([]uint64, n),
		addr:   make([]uint64, n),
		nonmem: make([]uint16, n),
		kind:   make([]byte, n),
	}
	for i, r := range recs {
		c.pc[i] = r.PC
		c.addr[i] = r.Addr
		c.nonmem[i] = r.NonMem
		c.kind[i] = byte(r.Kind)
	}
	return c
}

// Len implements Records.
func (c *Columns) Len() int { return len(c.kind) }

// At implements Records.
func (c *Columns) At(i int) Record {
	return Record{
		PC:     c.pc[i],
		Addr:   c.addr[i],
		NonMem: c.nonmem[i],
		Kind:   Kind(c.kind[i]),
	}
}

// Mapped reports whether the planes view an mmap'd file.
func (c *Columns) Mapped() bool { return c.src != nil }

// MappedBytes returns the size of the underlying mapping (0 for heap
// slabs) — what the trace cache accounts under its mapped-bytes gauge.
func (c *Columns) MappedBytes() int64 {
	if c.src == nil {
		return 0
	}
	return int64(len(c.src.data))
}

// HeapBytes returns the resident heap footprint of the planes (0 for
// mapped slabs, whose memory belongs to the page cache).
func (c *Columns) HeapBytes() int64 {
	if c.src != nil {
		return 0
	}
	return int64(c.Len()) * ColumnarRecordBytes
}

// Prefix returns a view of the first n records (n <= 0 or beyond the end
// returns c itself). Views share the underlying mapping: the region stays
// mapped until every view is unreachable.
func (c *Columns) Prefix(n int) *Columns {
	if n <= 0 || n >= c.Len() {
		return c
	}
	return &Columns{
		pc:     c.pc[:n],
		addr:   c.addr[:n],
		nonmem: c.nonmem[:n],
		kind:   c.kind[:n],
		src:    c.src,
	}
}

// DecodeColumnar builds a Columns over an encoded in-memory buffer.
// On little-endian hosts with an 8-aligned buffer the planes alias data
// (the caller must not mutate it); otherwise they are decoded copies.
func DecodeColumnar(data []byte) (*Columns, error) {
	return columnsFromBytes(data, nil)
}

// columnsFromBytes validates the header and builds the plane views.
// retain, when non-nil, is the mapping that owns data; it is attached to
// the result only when the zero-copy path is taken (the caller unmaps
// immediately otherwise).
func columnsFromBytes(data []byte, retain *mapping) (*Columns, error) {
	if len(data) < colsHeaderSize || string(data[:6]) != colsMagic {
		return nil, fmt.Errorf("%w: bad columnar header", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint16(data[6:8]); v != ColumnarVersion {
		return nil, fmt.Errorf("%w: columnar version %d (want %d)", ErrCorrupt, v, ColumnarVersion)
	}
	// Reserved words must be zero, so a later layout that uses them is
	// told apart from version 1 rather than misread as it.
	for _, b := range data[16:colsHeaderSize] {
		if b != 0 {
			return nil, fmt.Errorf("%w: non-zero reserved columnar header bytes", ErrCorrupt)
		}
	}
	count := binary.LittleEndian.Uint64(data[8:16])
	if count > uint64(int(^uint(0)>>1))/ColumnarRecordBytes || int64(len(data)) != ColumnarSize(int(count)) {
		return nil, fmt.Errorf("%w: columnar size %d does not match %d records", ErrCorrupt, len(data), count)
	}
	n := int(count)
	if n == 0 {
		return &Columns{}, nil
	}
	body := data[colsHeaderSize:]
	if hostLittleEndian && uintptr(unsafe.Pointer(&data[0]))%8 == 0 {
		c := &Columns{
			pc:     unsafe.Slice((*uint64)(unsafe.Pointer(&body[0])), n),
			addr:   unsafe.Slice((*uint64)(unsafe.Pointer(&body[8*n])), n),
			nonmem: unsafe.Slice((*uint16)(unsafe.Pointer(&body[16*n])), n),
			kind:   body[18*n : 19*n : 19*n],
			src:    retain,
		}
		return c, nil
	}
	c := &Columns{
		pc:     make([]uint64, n),
		addr:   make([]uint64, n),
		nonmem: make([]uint16, n),
		kind:   make([]byte, n),
	}
	for i := 0; i < n; i++ {
		c.pc[i] = binary.LittleEndian.Uint64(body[8*i:])
		c.addr[i] = binary.LittleEndian.Uint64(body[8*n+8*i:])
		c.nonmem[i] = binary.LittleEndian.Uint16(body[16*n+2*i:])
	}
	copy(c.kind, body[18*n:])
	return c, nil
}

// MapColumnar maps an encoded columnar file read-only and returns a
// Columns iterating it in place. The mapping is released when the last
// view becomes unreachable (finalizer-driven), so callers treat the result
// exactly like a heap slab. On hosts where the in-place view is impossible
// (big-endian, no mmap) the file's bytes are decoded onto the heap instead
// — correct, just not zero-copy.
func MapColumnar(path string) (*Columns, error) {
	m, err := mapFile(path)
	if err != nil {
		return nil, err
	}
	c, err := columnsFromBytes(m.data, m)
	if err != nil || c.src == nil {
		// Decode error, or the copy path ran: the mapping is not referenced
		// by the result, release it now instead of waiting on the GC.
		runtime.SetFinalizer(m, nil)
		m.unmap()
	}
	return c, err
}
