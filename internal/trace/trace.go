// Package trace defines the instruction-trace model consumed by the
// simulator. A trace is a stream of Records; each Record describes one
// memory instruction (load or store) preceded by NonMem non-memory
// instructions. This compact form is equivalent to a full instruction trace
// for a timing model whose non-memory instructions all cost one issue slot.
package trace

import (
	"errors"
	"io"
)

// Kind classifies the memory operation of a Record.
type Kind uint8

const (
	// Load is a demand data load; prefetchers train on these (§III-A:
	// "Gaze is trained on cache loads").
	Load Kind = iota
	// Store is a data store; it accesses the cache but does not train
	// spatial prefetchers in this model.
	Store
)

// Record is one memory instruction plus the run of non-memory instructions
// that precede it in program order.
type Record struct {
	// PC is the program counter of the memory instruction.
	PC uint64
	// Addr is the virtual byte address accessed.
	Addr uint64
	// NonMem is the number of non-memory instructions immediately before
	// this one; it sets the trace's memory intensity (MPKI).
	NonMem uint16
	// Kind is Load or Store.
	Kind Kind
}

// Instructions returns the number of instructions this record accounts for.
func (r Record) Instructions() int { return int(r.NonMem) + 1 }

// Reader yields trace records in program order. Next returns io.EOF when
// the trace is exhausted.
type Reader interface {
	Next() (Record, error)
}

// ErrCorrupt reports a malformed encoded trace.
var ErrCorrupt = errors.New("trace: corrupt encoding")

// ErrTruncated reports an encoded trace that ends mid-record — a torn
// varint tail, a partial header, or a gzip stream cut short. It is
// distinct from ErrCorrupt so ingestion can tell "this file is damaged"
// from "this upload was cut off", but both are client errors.
var ErrTruncated = errors.New("trace: truncated encoding")

// RecordWriter encodes records to a stream. Close finalizes the encoding
// (flushing buffers and, for gzip-wrapped formats, writing the footer);
// a stream abandoned before Close may be unreadable.
type RecordWriter interface {
	Write(Record) error
	Close() error
}

// SliceReader replays a materialized record slab — a heap slice or any
// other Records implementation (a mapped columnar slab). The slab is
// accessed through the Records seam; for heap slabs that is one interface
// call per record on top of the slice index, which the simulator's
// per-record cost absorbs, and it is what lets mapped slabs flow through
// the identical hot path without a second reader type.
type SliceReader struct {
	recs Records
	n    int
	pos  int
}

// NewSliceReader returns a Reader over a heap record slice.
func NewSliceReader(recs []Record) *SliceReader { return NewRecordsReader(RecSlice(recs)) }

// NewRecordsReader returns a Reader over any record slab.
func NewRecordsReader(recs Records) *SliceReader {
	return &SliceReader{recs: recs, n: recs.Len()}
}

// Next implements Reader.
func (s *SliceReader) Next() (Record, error) {
	if s.pos >= s.n {
		return Record{}, io.EOF
	}
	r := s.recs.At(s.pos)
	s.pos++
	return r, nil
}

// Reset rewinds the reader to the beginning of the slab.
func (s *SliceReader) Reset() { s.pos = 0 }

// Looping wraps a resettable source so it never returns io.EOF: when the
// underlying trace ends it is replayed from the start. This mirrors the
// paper's methodology ("if a trace reaches its end before the simulator has
// executed enough instructions, it is replayed from the start"). The
// source is held concretely (not behind an interface) so the simulator's
// per-record fetch inlines end to end.
type Looping struct {
	src   *SliceReader
	wraps int
}

// NewLooping wraps src in a looping reader.
func NewLooping(src *SliceReader) *Looping { return &Looping{src: src} }

// Next implements Reader; it only fails if the underlying trace is empty.
func (l *Looping) Next() (Record, error) {
	r, err := l.src.Next()
	if err == io.EOF {
		l.src.Reset()
		l.wraps++
		r, err = l.src.Next()
		if err == io.EOF {
			return Record{}, errors.New("trace: looping over empty trace")
		}
	}
	return r, err
}

// Wraps reports how many times the trace has restarted.
func (l *Looping) Wraps() int { return l.wraps }

// Collect drains up to max records from r into a slice. max <= 0 collects
// until EOF.
func Collect(r Reader, max int) ([]Record, error) {
	var out []Record
	for max <= 0 || len(out) < max {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
	return out, nil
}
